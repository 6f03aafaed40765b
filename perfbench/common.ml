(* Types shared by the workloads and main.ml. *)

(* [Failed]: the op reported an error (a crash, a runtime error, a
   diverging oracle verdict).  [Wrong]: the op reported success with an
   output that differs from its reference — a correctness failure of
   the benchmark run itself. *)
type outcome = Pass | Failed of string | Wrong of string

(* Times are wall-clock ([Unix.gettimeofday]); [Calib.reference]
   turns an interval into reference seconds. *)
type op = {
  t0 : float;  (** hand-in *)
  t1 : float;  (** result, verification excluded *)
  outcome : outcome;
  cls : string;  (** request class; [""] outside serve_mix *)
}

type round = {
  ops : op list;
  r0 : float;  (** start of the round's ops *)
  r1 : float;  (** end of the round's ops, verification excluded *)
  spans : Trace.span list;
  counts : (string * float) list;
}

let lat o = o.t1 -. o.t0

let of_ops ~r0 ~r1 (ops : (op * Trace.op option) list) =
  let traced = List.filter_map snd ops in
  {
    ops = List.map fst ops;
    r0;
    r1;
    spans = List.concat_map (fun (o : Trace.op) -> o.spans) traced;
    counts = List.concat_map (fun (o : Trace.op) -> o.counts) traced;
  }

let total rounds name =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (k, v) -> if String.equal k name then acc +. v else acc)
        acc r.counts)
    0. rounds

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* One set-up workload.  [round ~traced k] runs the k-th round of ops;
   rounds are a pure function of the seed and [k].  [det ()] computes
   the deterministic metrics from a fixed set of inputs (it must give
   the same numbers on every call).  [layers rounds] derives the
   per-layer wall metrics from traced rounds.  The heap high-water mark
   is read after [mem_run ()], a fixed amount of the workload's work run
   right after set-up, so it does not grow with the speed of the code. *)
type instance = {
  mem_run : unit -> unit;
  round : traced:bool -> int -> round;
  det : unit -> metric list;
  layers : round list -> metric list;
}

(* [mem_run] for workloads whose rounds are self-contained. *)
let rounds_of round n () =
  for k = 0 to n - 1 do
    ignore (round ~traced:false k)
  done

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [f ()] with the times it started and ended.  Call it only where no
   op is in flight: the calibration probe may run first. *)
let timed f =
  Calib.tick ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, t0, Unix.gettimeofday ())

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted, non-empty array, [p] in [0, 1]. *)
let rank a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile p xs = if xs = [] then Float.nan else rank (sorted xs) p

(* The median as the mean of the 45th..55th percentiles.  Where the
   ops fall into a few classes of distinct cost (20 programs, a handful
   of request kinds) the plain median sits on the edge between two
   classes and jumps between them from run to run; averaging a band of
   ranks around it does not. *)
let smoothed_median xs =
  if xs = [] then Float.nan
  else
    let a = sorted xs in
    let ps = List.init 11 (fun i -> 0.45 +. (0.01 *. float_of_int i)) in
    List.fold_left (fun acc p -> acc +. rank a p) 0. ps /. 11.

(* Geometric mean of the positive values (a program with no offload
   replays to a zero makespan and carries no code-quality signal). *)
let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> Float.nan
  | ps ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. ps
        /. float_of_int (List.length ps))

(* A seeded Fisher-Yates permutation. *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The width of every pool the benchmark hands to the library.  One:
   [Parallel.run] then runs inline and no domain is spawned.  On a
   2-vCPU VM shared with other tenants, a pool of 2 measures the host's
   scheduler more than the code: each search and each round spawns its
   domains afresh, and OCaml 5's stop-the-world minor collections stall
   a domain whenever its sibling's vCPU is descheduled. *)
let pool_width = 1
let fuel = 10_000_000
