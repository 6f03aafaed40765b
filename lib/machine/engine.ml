(** Discrete-event list scheduler.

    Each resource executes its tasks serially; a task becomes ready when
    all its dependencies have finished; ties are broken by ready time,
    then by task id (i.e. FIFO in graph-construction order).  This is a
    standard non-preemptive list schedule: enough to model the overlap
    of PCIe transfers with device computation that data streaming
    exploits, and the serialization that a single DMA channel or the
    device itself imposes. *)

type placed = {
  task : Task.t;
  start : float;
  finish : float;
}

type result = {
  placed : placed list;  (** in order of completion *)
  makespan : float;
  busy : (Task.resource * float) list;  (** per-resource busy time *)
}

exception Cycle of string

(* binary min-heap of task indices ordered by (ready time, id):
   schedules run to tens of thousands of tasks (merged streamcluster:
   repeats x blocks), so the scheduler must be O(n log n).  A task's
   ready time is final once it is pushed, so the heap stores bare
   indices and reads the keys from the scheduler's arrays. *)
module Heap = struct
  type t = {
    mutable a : int array;
    mutable size : int;
    key : float array;
    id : int array;
  }

  let create ~key ~id = { a = Array.make 64 0; size = 0; key; id }

  let less h x y =
    h.key.(x) < h.key.(y) || (h.key.(x) = h.key.(y) && h.id.(x) < h.id.(y))

  let swap a i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp

  let push h e =
    if h.size = Array.length h.a then begin
      let bigger = Array.make (2 * h.size) 0 in
      Array.blit h.a 0 bigger 0 h.size;
      h.a <- bigger
    end;
    h.a.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less h h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      swap h.a p !i;
      i := p
    done

  (* the minimum; the heap must be non-empty *)
  let pop h =
    let top = h.a.(0) in
    h.size <- h.size - 1;
    h.a.(0) <- h.a.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.size && less h h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h.a !smallest !i;
        i := !smallest
      end
      else continue := false
    done;
    top
end

(* Tables keyed by resource without polymorphic hashing: the scheduler
   interns resources to indices into its free-time array, and
   [result_of_placed] sums busy time per resource. *)
module Res = Hashtbl.Make (struct
  type t = Task.resource

  let equal (a : t) (b : t) =
    match (a, b) with
    | Cpu_exec, Cpu_exec -> true
    | Mic_exec (d, s), Mic_exec (d', s') -> d = d' && s = s'
    | Pcie_h2d d, Pcie_h2d d' | Pcie_d2h d, Pcie_d2h d' -> d = d'
    | _ -> false

  let hash : t -> int = function
    | Cpu_exec -> 0
    | Mic_exec (d, s) -> (((d * 65599) + s) * 4) + 1
    | Pcie_h2d d -> (d * 4) + 2
    | Pcie_d2h d -> (d * 4) + 3
end)

(* Synthetic placed entry covering the recovery tail of a faulted task
   (retransfers' backoff, device resets): accounted as kind [Retry] so
   it shows up as its own phase in profiles and keeps the resource
   busy-time conservation honest.  The negative id keeps it clear of
   every real task id. *)
let recovery_task (t : Task.t) ~duration =
  {
    Task.id = -1 - t.Task.id;
    label = t.Task.label ^ "+recovery";
    resource = t.Task.resource;
    duration;
    deps = [];
    kind = Some Obs.Retry;
    bytes = 0.;
    reset_xfer_s = 0.;
  }

(* Fault consultation for one task about to run at [start]: returns
   [(busy, recovery)] — the time the task itself occupies its resource
   (including retransfers or a killed-and-rerun kernel) and the extra
   recovery tail (backoff, resets).  The plan consulted is the one for
   the device the task's resource belongs to.  Raises
   {!Fault.Device_dead} (with the device index) when the degradation
   policy gives up on that device. *)
let faulted_times fleet (t : Task.t) ~start =
  let dur = t.Task.duration in
  match t.Task.resource with
  | (Task.Pcie_h2d dev | Task.Pcie_d2h dev) when dur > 0. ->
      let plan = Fault.fleet_plan fleet ~dev in
      let rep = Fault.next_transfer plan in
      let p = Fault.policy plan in
      let overhead failures resets =
        Fault.backoff_total plan ~failures
        +. (float_of_int resets *. p.Fault.reset_recovery_s)
      in
      if rep.Fault.xr_dead then
        raise
          (Fault.Device_dead
             {
               dev;
               at =
                 start
                 +. (float_of_int rep.Fault.xr_failures *. dur)
                 +. overhead rep.Fault.xr_failures rep.Fault.xr_resets;
               failures = rep.Fault.xr_failures;
             })
      else if rep.Fault.xr_failures = 0 then (dur, 0.)
      else
        (* only the failed block is retransferred: busy grows by one
           block per failed attempt, never by the whole offload *)
        ( float_of_int (rep.Fault.xr_failures + 1) *. dur,
          overhead rep.Fault.xr_failures rep.Fault.xr_resets )
  | Task.Mic_exec (dev, _) when dur > 0. -> (
      let plan = Fault.fleet_plan fleet ~dev in
      match Fault.take_reset plan ~start ~stop:(start +. dur) with
      | None -> (dur, 0.)
      | Some (reset_time, recovery) ->
          (* the kernel's progress up to the reset is lost; after the
             device recovers, it runs again from scratch — and any
             device-resident inputs the reset wiped (transfers this
             kernel elided via residency) must be moved again first *)
          ((reset_time -. start) +. dur, recovery +. t.Task.reset_xfer_s))
  | _ -> (dur, 0.)

(** Assemble a {!result} from already-placed tasks (in completion
    order): makespan is the latest finish, busy rows cover
    {!Task.base_resources} plus every resource the placements touch,
    each summed in completion order in one pass.  Exposed so composite schedulers (e.g. block migration) can merge
    placements from several engine runs into one report. *)
let result_of_placed (placed : placed list) : result =
  let sums = Res.create 8 in
  let makespan =
    List.fold_left
      (fun acc p ->
        let r = p.task.Task.resource in
        (match Res.find_opt sums r with
        | Some s -> s := !s +. p.task.Task.duration
        | None ->
            (* [0. +. d], as a fold from [0.] adds: -0. sums to 0. *)
            Res.add sums r (ref (0. +. p.task.Task.duration)));
        Float.max acc p.finish)
      0. placed
  in
  let busy =
    Task.report_rows (Res.fold (fun r _ acc -> r :: acc) sums [])
    |> List.map (fun r ->
           (r, match Res.find_opt sums r with Some s -> !s | None -> 0.))
  in
  { placed; makespan; busy }

(* The dependency graph in dense form.  Task [i] of the input list has
   index [i]; [dependents.(off.(d)) .. dependents.(off.(d + 1) - 1)]
   are the indices waiting on [d], latest-listed first, and
   [indegree.(i)] counts [i]'s distinct dependencies. *)
type graph = {
  tasks : Task.t array;
  ids : int array;
  off : int array;
  dependents : int array;
  indegree : int array;
}

(* id -> index: an array when the ids are a permutation of [0, n) (as
   {!Task.builder} produces), a table otherwise; [-1] for unknown *)
let index_of_ids ids =
  let n = Array.length ids in
  let dup id = invalid_arg (Printf.sprintf "duplicate task id %d" id) in
  if Array.for_all (fun id -> id >= 0 && id < n) ids then begin
    let ix = Array.make n (-1) in
    Array.iteri
      (fun i id ->
        if ix.(id) >= 0 then dup id;
        ix.(id) <- i)
      ids;
    fun id -> if id >= 0 && id < n then ix.(id) else -1
  end
  else begin
    let ix = Hashtbl.create n in
    Array.iteri
      (fun i id ->
        if Hashtbl.mem ix id then dup id;
        Hashtbl.replace ix id i)
      ids;
    fun id -> Option.value (Hashtbl.find_opt ix id) ~default:(-1)
  end

let graph_of (tasks : Task.t list) =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let ids = Array.map (fun (t : Task.t) -> t.id) tasks in
  let index_of = index_of_ids ids in
  (* [stamp.(d) = mark] once [d] is counted for the current task:
     repeated deps count once *)
  let stamp = Array.make n (-1) in
  let off = Array.make (n + 1) 0 in
  let indegree = Array.make n 0 in
  Array.iteri
    (fun i (t : Task.t) ->
      List.iter
        (fun dep ->
          let d = index_of dep in
          if d < 0 then
            invalid_arg
              (Printf.sprintf "task %d depends on unknown task %d" t.id dep);
          if stamp.(d) <> i then begin
            stamp.(d) <- i;
            indegree.(i) <- indegree.(i) + 1;
            off.(d + 1) <- off.(d + 1) + 1
          end)
        t.deps)
    tasks;
  for d = 1 to n do
    off.(d) <- off.(d) + off.(d - 1)
  done;
  (* fill each row from its end, so later tasks come first *)
  let fill = Array.sub off 1 n in
  let dependents = Array.make off.(n) 0 in
  Array.iteri
    (fun i (t : Task.t) ->
      List.iter
        (fun dep ->
          let d = index_of dep in
          if stamp.(d) <> n + i then begin
            stamp.(d) <- n + i;
            fill.(d) <- fill.(d) - 1;
            dependents.(fill.(d)) <- i
          end)
        t.deps)
    tasks;
  { tasks; ids; off; dependents; indegree }

let span_s_name = Obs.per_kind (fun k -> "span_s." ^ Obs.kind_name k)

let schedule ?obs ?faults (tasks : Task.t list) : result =
  let g = graph_of tasks in
  let n = Array.length g.tasks in
  let ix = Res.create 8 in
  let res =
    Array.map
      (fun (t : Task.t) ->
        match Res.find_opt ix t.resource with
        | Some i -> i
        | None ->
            let i = Res.length ix in
            Res.add ix t.resource i;
            i)
      g.tasks
  in
  let free = Array.make (Res.length ix) 0. in
  let ready_at = Array.make n 0. in
  let indegree = g.indegree in
  let heap = Heap.create ~key:ready_at ~id:g.ids in
  for i = 0 to n - 1 do
    if indegree.(i) = 0 then Heap.push heap i
  done;
  let placed = ref [] in
  let scheduled = ref 0 in
  while heap.Heap.size > 0 do
    let i = Heap.pop heap in
    let t = g.tasks.(i) and r = res.(i) in
    let start = Float.max ready_at.(i) free.(r) in
    let busy, recovery =
      match faults with
      | None -> (t.Task.duration, 0.)
      | Some fleet -> faulted_times fleet t ~start
    in
    let fin = start +. busy +. recovery in
    free.(r) <- fin;
    placed :=
      { task = { t with Task.duration = busy }; start; finish = start +. busy }
      :: !placed;
    if recovery > 0. then
      placed :=
        { task = recovery_task t ~duration:recovery; start = start +. busy;
          finish = fin }
        :: !placed;
    (match obs with
    | None -> ()
    | Some o ->
        (* every placed task becomes one span on the simulated clock:
           the event trace behind the profile breakdown *)
        let kind =
          match t.Task.kind with
          | Some k -> k
          | None -> Task.default_kind t.Task.resource
        in
        Obs.span ~bytes:t.Task.bytes o kind ~label:t.Task.label ~start
          ~stop:(start +. busy);
        Obs.incr o "engine.tasks";
        Obs.observe o (span_s_name kind) busy;
        if
          recovery > 0.
          && (match t.Task.resource with
             | Task.Mic_exec _ -> true
             | _ -> false)
          && t.Task.reset_xfer_s > 0.
        then begin
          (* a reset wiped device-resident data this kernel relied on;
             the recovery tail includes its re-transfer *)
          Obs.incr o "residency.reset_retransfers";
          Obs.observe o "residency.reset_xfer_s" t.Task.reset_xfer_s
        end;
        if busy +. recovery > t.Task.duration then begin
          Obs.span o Obs.Retry
            ~label:(t.Task.label ^ "+recovery")
            ~start:(start +. busy) ~stop:fin;
          Obs.observe o "fault.recovery_s"
            (busy +. recovery -. t.Task.duration)
        end);
    incr scheduled;
    for k = g.off.(i) to g.off.(i + 1) - 1 do
      let d = g.dependents.(k) in
      indegree.(d) <- indegree.(d) - 1;
      ready_at.(d) <- Float.max ready_at.(d) fin;
      if indegree.(d) = 0 then Heap.push heap d
    done
  done;
  if !scheduled <> n then
    raise
      (Cycle
         (Printf.sprintf "dependency cycle among %d tasks" (n - !scheduled)));
  result_of_placed (List.rev !placed)

(** Makespan of a task list (convenience). *)
let makespan tasks = (schedule tasks).makespan

(** Longest dependency chain ignoring resource contention: a lower
    bound on the makespan (property-tested). *)
let critical_path (tasks : Task.t list) =
  let by_id = Hashtbl.create 16 in
  List.iter (fun (t : Task.t) -> Hashtbl.replace by_id t.id t) tasks;
  let memo = Hashtbl.create 16 in
  let rec depth (t : Task.t) =
    match Hashtbl.find_opt memo t.id with
    | Some d -> d
    | None ->
        let d =
          t.duration
          +. List.fold_left
               (fun acc dep ->
                 Float.max acc (depth (Hashtbl.find by_id dep)))
               0. t.deps
        in
        Hashtbl.replace memo t.id d;
        d
  in
  List.fold_left (fun acc t -> Float.max acc (depth t)) 0. tasks
