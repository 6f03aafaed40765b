(* Machine-speed calibration for the wall-clock metrics.

   On a shared 2-vCPU VM the speed of allocation-heavy code drifts by
   up to 1.6x over periods of seconds to minutes, for reasons outside
   the process (on such a VM, oneshot's round throughput and this
   probe's time moved together with correlation -0.8).  A whole
   10-second run can sit in a slow period, so medians within a run do
   not remove it.

   [probe] times a fixed piece of work that shares nothing with the
   code under test: stdlib list building, mapping and sorting whose
   data all dies young, so its cost depends on the machine and the
   minor heap, not on the size of the benchmark's major heap.

   While a measurement runs, the benchmark calls [tick] wherever no op
   is in flight (between ops, and between a serve session's requests
   when every response is out); it probes at most every [every_s].
   The probes form a timeline, and [reference t0 t1] converts the wall
   interval [t0, t1] into seconds of a machine where the probe takes
   [reference_s]: each stretch between two probes is scaled by
   [reference_s] over the mean of those two probes' times, and the
   probes' own time is left out.  The speed moves within seconds, so a
   factor taken from earlier probes only lags behind it: on a 0.35 s
   serve session, scaling by the median of the five previous probes
   removed none of the session-to-session spread, and scaling by the
   pair that brackets the session removed half of it. *)

let probe () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 1 to 300 do
    let l = List.init 300 (fun j -> (i * j) land 1023) in
    let l = List.rev_map (fun x -> (x * 3) + 1) l in
    acc := !acc + List.fold_left ( + ) 0 (List.sort compare l)
  done;
  ignore (Sys.opaque_identity !acc);
  (t0, Unix.gettimeofday ())

(* The probe's time on the reference machine: a 2-vCPU x86-64 VM,
   OCaml 5.1.1, in its fast periods. *)
let reference_s = 0.005

let every_s = 0.1

(* The timeline: probe start and end times, in order, [count] of them. *)
let starts = ref [||]
let ends = ref [||]
let count = ref 0
let active = ref false
let next_at = ref 0.

let sample () =
  let t0, t1 = probe () in
  if !count = Array.length !starts then begin
    let grow a = Array.append a (Array.make (max 64 (Array.length a)) 0.) in
    starts := grow !starts;
    ends := grow !ends
  end;
  !starts.(!count) <- t0;
  !ends.(!count) <- t1;
  incr count;
  next_at := t1 +. every_s

(* Start a new timeline; the first probe of a process runs cold and is
   not kept. *)
let start () =
  ignore (probe ());
  count := 0;
  active := true;
  sample ()

(* End the timeline with a last probe; [reference] stays valid for the
   intervals measured while it was open. *)
let stop () =
  sample ();
  active := false

(* Probe if the timeline is open and [every_s] has passed since the
   last probe.  Only the main domain probes: a probe on a pool domain
   would run inside another op's interval. *)
let tick () =
  if !active && Domain.is_main_domain () && Unix.gettimeofday () >= !next_at then
    sample ()

let duration i = !ends.(i) -. !starts.(i)

(* Reference seconds of the stretch between probe [i - 1] and probe
   [i] ([i] in [0, count]; the stretches before the first and after the
   last probe take that probe's time alone). *)
let gap_factor i =
  let n = !count in
  let d =
    if i = 0 then duration 0
    else if i = n then duration (n - 1)
    else (duration (i - 1) +. duration i) /. 2.
  in
  reference_s /. d

(* The number of probes that ended at or before [t]. *)
let ended_by t =
  let lo = ref 0 and hi = ref !count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if !ends.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Sum of [f gap overlap] over the stretches between probes that
   overlap [t0, t1]. *)
let fold_gaps t0 t1 f =
  let n = !count in
  let acc = ref 0. and i = ref (ended_by t0) in
  let continue = ref true in
  while !continue && !i <= n do
    let lo = if !i = 0 then neg_infinity else !ends.(!i - 1) in
    let hi = if !i = n then infinity else !starts.(!i) in
    if lo >= t1 then continue := false
    else begin
      let overlap = Float.min t1 hi -. Float.max t0 lo in
      if overlap > 0. then acc := !acc +. f !i overlap;
      incr i
    end
  done;
  !acc

(* [t0, t1] in reference seconds, probes left out. *)
let reference t0 t1 =
  if !count = 0 then t1 -. t0 else fold_gaps t0 t1 (fun i d -> d *. gap_factor i)

(* [t0, t1] in wall seconds, probes left out. *)
let busy t0 t1 = if !count = 0 then t1 -. t0 else fold_gaps t0 t1 (fun _ d -> d)

(* The slowest and fastest probe of the timeline, as a share of the
   reference machine's speed. *)
let speed_range () =
  let ds = List.init !count duration in
  ( reference_s /. List.fold_left Float.max 0. ds,
    reference_s /. List.fold_left Float.min infinity ds )
