open Helpers
open Machine

(* random DAGs: deps only point to lower ids, so they are acyclic *)
let arb_dag =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* durations = list_size (return n) (float_range 0.0 2.0) in
      let* dep_flags =
        list_size (return n) (list_size (int_range 0 3) (int_range 0 1000))
      in
      return
        (List.mapi
           (fun i (d, raw_deps) ->
             let deps =
               List.filter_map
                 (fun r -> if i = 0 then None else Some (r mod i))
                 raw_deps
               |> List.sort_uniq compare
             in
             {
               Task.id = i;
               label = Printf.sprintf "t%d" i;
               resource =
                 (* a 2-device x 2-stream mix, so multi-device
                    resources see the same property coverage *)
                 (match i mod 4 with
                 | 0 -> Task.Cpu_exec
                 | 1 -> Task.Mic_exec (i mod 2, (i lsr 2) mod 2)
                 | 2 -> Task.Pcie_h2d (i mod 2)
                 | _ -> Task.Pcie_d2h (i mod 2));
               duration = d;
               deps;
               kind = None;
               bytes = 0.;
               reset_xfer_s = 0.;
             })
           (List.combine durations dep_flags)))
  in
  QCheck.make gen

(* Inputs for the differential oracle against {!Engine_ref}: the
   [arb_dag] shape with ids renumbered (a shuffled permutation of
   [0, n), or sparse ids), the list shuffled, deps repeated, mixed
   kinds/bytes/reset costs, and a fault spec with transfer failures,
   resets and device death. *)
let arb_oracle =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* tasks =
        list_size (return n)
          (quad (float_range 0.0 2.0)
             (list_size (int_range 0 4) (int_range 0 1000))
             (int_range 0 3) (float_range 0.0 0.5))
      in
      let* sparse = bool in
      let* perm = map Array.of_list (shuffle_l (List.init n Fun.id)) in
      let* order = shuffle_l (List.init n Fun.id) in
      let* faults =
        let clause p c =
          map (fun x -> if x < p then [ c ] else []) (float_bound_inclusive 1.)
        in
        let* seed = int_range 0 99 in
        let* xfer = oneofl [ []; [ "xfer=0.2" ]; [ "xfer=0.5" ] ] in
        let* forced = int_range 0 12 in
        let* reset = float_range 0.1 8.0 in
        let* parts =
          flatten_l
            [
              clause 0.4 (Printf.sprintf "xfer@%d*2" forced);
              clause 0.4 (Printf.sprintf "reset@%g" reset);
              clause 0.2 (Printf.sprintf "kill@%d" forced);
              clause 0.3 "dev1:xfer@1";
              clause 0.3 "dead-after=1";
            ]
        in
        let* on = float_bound_inclusive 1. in
        return
          (if on < 0.25 then None
           else
             Some
               (String.concat ","
                  ((Printf.sprintf "seed=%d" seed :: xfer) @ List.concat parts)))
      in
      let id_of i = if sparse then (perm.(i) * 7) + 3 else perm.(i) in
      let tasks =
        List.mapi
          (fun i (d, raw_deps, kind, reset_xfer_s) ->
            {
              Task.id = id_of i;
              label = Printf.sprintf "t%d" i;
              resource =
                (match i mod 4 with
                | 0 -> Task.Cpu_exec
                | 1 -> Task.Mic_exec (i mod 2, (i lsr 2) mod 2)
                | 2 -> Task.Pcie_h2d (i mod 2)
                | _ -> Task.Pcie_d2h (i mod 2));
              duration = d;
              (* deps point to lower original positions: acyclic, and
                 repeats are kept *)
              deps =
                List.filter_map
                  (fun r -> if i = 0 then None else Some (id_of (r mod i)))
                  raw_deps;
              kind =
                (if kind = 0 then None
                 else Some (List.nth Obs.all_kinds (i mod 10)));
              bytes = float_of_int (kind * 1024);
              reset_xfer_s;
            })
          tasks
      in
      (* now and then a cycle (task 0 and task n-1 wait on each
         other) or a dep on an id no task has *)
      let* twist = frequencyl [ (8, `None); (1, `Cycle); (1, `Unknown) ] in
      let arr = Array.of_list tasks in
      let add_dep i d =
        arr.(i) <- { (arr.(i)) with Task.deps = d :: arr.(i).Task.deps }
      in
      (match twist with
      | `None -> ()
      | `Cycle ->
          add_dep 0 (id_of (n - 1));
          add_dep (n - 1) (id_of 0)
      | `Unknown -> add_dep (n / 2) (-5));
      return (List.map (fun i -> arr.(i)) order, faults))
  in
  QCheck.make
    ~print:(fun (ts, f) ->
      Printf.sprintf "%s\nfaults: %s"
        (String.concat "\n"
           (List.map
              (fun (t : Task.t) ->
                Printf.sprintf "%d %s %g deps=[%s]" t.id
                  (Task.resource_name t.resource) t.duration
                  (String.concat ";" (List.map string_of_int t.deps)))
              ts))
        (Option.value f ~default:"none"))
    gen

(* Everything observable about one engine run, floats as bits. *)
let bits = Int64.bits_of_float

let observe_run
    (schedule :
      ?obs:Obs.t -> ?faults:Fault.fleet -> Task.t list -> Engine.result)
    ?faults tasks =
  let obs = Obs.create () in
  let fleet =
    Option.map
      (fun s ->
        match Fault.parse s with
        | Ok spec -> Fault.fleet ~obs ~devices:2 spec
        | Error e -> failwith (Fault.error_message e))
      faults
  in
  let outcome =
    match schedule ~obs ?faults:fleet tasks with
    | r ->
        Ok
          ( List.map
              (fun (p : Engine.placed) ->
                ( p.task.Task.id, bits p.start, bits p.finish,
                  bits p.task.Task.duration ))
              r.placed,
            bits r.makespan,
            List.map (fun (res, b) -> (res, bits b)) r.busy )
    | exception Engine.Cycle m -> Error ("cycle: " ^ m)
    | exception Engine_ref.Cycle m -> Error ("cycle: " ^ m)
    | exception Invalid_argument m -> Error ("invalid: " ^ m)
    | exception Fault.Device_dead { dev; at; failures } ->
        Error (Printf.sprintf "dead: %d %Ld %d" dev (bits at) failures)
  in
  let spans =
    List.map
      (fun (s : Obs.span) ->
        ( s.span_kind, s.span_label, bits s.span_bytes, bits s.span_start,
          bits s.span_stop ))
      (Obs.spans obs)
  in
  (outcome, spans, Obs.Json.to_string (Obs.to_json obs))

let agrees_with_ref ?faults tasks =
  observe_run Engine.schedule ?faults tasks
  = observe_run Engine_ref.schedule ?faults tasks

let simple ~resource ~duration ~deps id =
  { Task.id; label = "t"; resource; duration; deps; kind = None; bytes = 0.;
    reset_xfer_s = 0. }

let suite =
  [
    tc "sequential chain sums durations" (fun () ->
        let tasks =
          [
            simple ~resource:Task.Cpu_exec ~duration:1.0 ~deps:[] 0;
            simple ~resource:Task.Cpu_exec ~duration:2.0 ~deps:[ 0 ] 1;
            simple ~resource:Task.Cpu_exec ~duration:3.0 ~deps:[ 1 ] 2;
          ]
        in
        Alcotest.(check (float 1e-12)) "makespan" 6.0 (Engine.makespan tasks));
    tc "independent tasks on different resources overlap" (fun () ->
        let tasks =
          [
            simple ~resource:(Task.Pcie_h2d 0) ~duration:5.0 ~deps:[] 0;
            simple ~resource:(Task.Mic_exec (0, 0)) ~duration:5.0 ~deps:[] 1;
          ]
        in
        Alcotest.(check (float 1e-12)) "overlap" 5.0 (Engine.makespan tasks));
    tc "same resource serializes" (fun () ->
        let tasks =
          [
            simple ~resource:(Task.Mic_exec (0, 0)) ~duration:5.0 ~deps:[] 0;
            simple ~resource:(Task.Mic_exec (0, 0)) ~duration:5.0 ~deps:[] 1;
          ]
        in
        Alcotest.(check (float 1e-12)) "serial" 10.0 (Engine.makespan tasks));
    tc "pipeline overlaps like Figure 5(d)" (fun () ->
        (* 4 blocks: transfer 1s each on h2d, compute 1s each on mic,
           compute b depends on transfer b; ideal time = 1 (first
           transfer) + 4 (compute) *)
        let b = Task.builder () in
        let prev_k = ref None in
        for _blk = 0 to 3 do
          let t =
            Task.add b ~label:"h2d" ~resource:(Task.Pcie_h2d 0) ~duration:1.0 ()
          in
          let deps = t :: Option.to_list !prev_k in
          let k =
            Task.add b ~deps ~label:"k" ~resource:(Task.Mic_exec (0, 0)) ~duration:1.0
              ()
          in
          prev_k := Some k
        done;
        Alcotest.(check (float 1e-12))
          "pipelined" 5.0
          (Engine.makespan (Task.tasks b)));
    tc "dependency cycle detected" (fun () ->
        let tasks =
          [
            simple ~resource:Task.Cpu_exec ~duration:1.0 ~deps:[ 1 ] 0;
            simple ~resource:Task.Cpu_exec ~duration:1.0 ~deps:[ 0 ] 1;
          ]
        in
        match Engine.schedule tasks with
        | exception Engine.Cycle _ -> ()
        | _ -> Alcotest.fail "expected cycle detection");
    tc "unknown dependency rejected" (fun () ->
        let tasks =
          [ simple ~resource:Task.Cpu_exec ~duration:1.0 ~deps:[ 42 ] 0 ]
        in
        match Engine.schedule tasks with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected invalid_arg");
    tc "duplicate task ids rejected" (fun () ->
        let dup ids =
          List.mapi
            (fun i id ->
              simple ~resource:Task.Cpu_exec ~duration:(float_of_int (i + 1))
                ~deps:(if i = 2 then [ List.hd ids ] else [])
                id)
            ids
        in
        (* dense ids take the array index, sparse ones the table *)
        List.iter
          (fun (ids, id) ->
            match Engine.schedule (dup ids) with
            | exception Invalid_argument m ->
                Alcotest.(check string)
                  "message" (Printf.sprintf "duplicate task id %d" id) m
            | _ -> Alcotest.fail "expected invalid_arg")
          [ ([ 0; 0; 1 ], 0); ([ 50; 70; 50 ], 50) ]);
    prop "engine matches the reference engine" ~count:300 arb_oracle
      (fun (tasks, faults) -> agrees_with_ref ?faults tasks);
    tc "engine matches the reference engine on the registry" (fun () ->
        let base = Config.paper_default in
        let configs =
          [
            ("paper_default", base);
            ("2x2", Config.with_devices base ~devices:2 ~streams:2);
            ( "half-duplex",
              { base with
                Config.pcie = { base.Config.pcie with duplex = Half_duplex } } );
          ]
        in
        List.iter
          (fun (w : Workloads.Workload.t) ->
            let a = Comp.analyze w in
            List.iter
              (fun v ->
                let strategy, shape = Comp.plan_of_variant w a v in
                List.iter
                  (fun (cname, cfg) ->
                    let tasks = Runtime.Schedule_gen.tasks cfg shape strategy in
                    if not (agrees_with_ref tasks) then
                      Alcotest.failf "%s / %s: engines disagree" w.name cname)
                  configs)
              [ Comp.Cpu_parallel; Comp.Mic_naive; Comp.Mic_optimized ])
          Workloads.Registry.all);
    prop "makespan >= critical path" ~count:200 arb_dag (fun tasks ->
        Engine.makespan tasks >= Engine.critical_path tasks -. 1e-9);
    prop "makespan >= per-resource busy time" ~count:200 arb_dag
      (fun tasks ->
        let r = Engine.schedule tasks in
        List.for_all (fun (_, busy) -> r.makespan >= busy -. 1e-9) r.busy);
    prop "makespan <= sum of durations" ~count:200 arb_dag (fun tasks ->
        let total =
          List.fold_left (fun acc (t : Task.t) -> acc +. t.duration) 0. tasks
        in
        Engine.makespan tasks <= total +. 1e-9);
    prop "dependencies respected in the placement" ~count:200 arb_dag
      (fun tasks ->
        let r = Engine.schedule tasks in
        let finish = Hashtbl.create 16 in
        List.iter
          (fun (p : Engine.placed) ->
            Hashtbl.replace finish p.task.Task.id p.finish)
          r.placed;
        List.for_all
          (fun (p : Engine.placed) ->
            List.for_all
              (fun d -> Hashtbl.find finish d <= p.start +. 1e-9)
              p.task.Task.deps)
          r.placed);
    prop "no overlap on a single resource" ~count:200 arb_dag (fun tasks ->
        let r = Engine.schedule tasks in
        List.for_all
          (fun res ->
            let placed =
              List.filter
                (fun (p : Engine.placed) -> p.task.Task.resource = res)
                r.placed
              |> List.sort (fun (a : Engine.placed) b ->
                     compare a.start b.start)
            in
            let rec ok = function
              | a :: (b :: _ as rest) ->
                  (a : Engine.placed).finish <= b.Engine.start +. 1e-9
                  && ok rest
              | _ -> true
            in
            ok placed)
          (Task.report_rows (List.map (fun (t : Task.t) -> t.resource) tasks)));
    (* differential: the heap-based scheduler must agree with a naive
       quadratic reference implementation of the same policy (pick the
       ready task with the smallest (ready_time, id), serialize per
       resource) *)
    prop "heap scheduler matches the naive reference" ~count:150 arb_dag
      (fun tasks ->
        let reference (tasks : Task.t list) =
          let finish = Hashtbl.create 16 in
          let free = Hashtbl.create 8 in
          let free_of r = Option.value (Hashtbl.find_opt free r) ~default:0. in
          let remaining = ref tasks in
          let makespan = ref 0. in
          while !remaining <> [] do
            let ready =
              List.filter
                (fun (t : Task.t) ->
                  List.for_all (Hashtbl.mem finish) t.deps)
                !remaining
            in
            let rt (t : Task.t) =
              List.fold_left
                (fun acc d -> Float.max acc (Hashtbl.find finish d))
                0. t.deps
            in
            let best =
              List.fold_left
                (fun best t ->
                  match best with
                  | None -> Some t
                  | Some b ->
                      if
                        rt t < rt b
                        || (rt t = rt b && t.Task.id < b.Task.id)
                      then Some t
                      else best)
                None ready
            in
            let t = Option.get best in
            let start = Float.max (rt t) (free_of t.Task.resource) in
            let fin = start +. t.Task.duration in
            Hashtbl.replace finish t.Task.id fin;
            Hashtbl.replace free t.Task.resource fin;
            makespan := Float.max !makespan fin;
            remaining :=
              List.filter (fun (x : Task.t) -> x.Task.id <> t.Task.id) !remaining
          done;
          !makespan
        in
        Float.abs (Engine.makespan tasks -. reference tasks) < 1e-9);
    prop "scheduling is deterministic" ~count:50 arb_dag (fun tasks ->
        let a = Engine.schedule tasks and b = Engine.schedule tasks in
        a.makespan = b.makespan);
    tc "trace renders a gantt" (fun () ->
        let tasks =
          [
            simple ~resource:(Task.Pcie_h2d 0) ~duration:1.0 ~deps:[] 0;
            simple ~resource:(Task.Mic_exec (0, 0)) ~duration:2.0 ~deps:[ 0 ] 1;
          ]
        in
        let g = Trace.gantt (Engine.schedule tasks) in
        Alcotest.(check bool) "has rows" true (contains ~sub:"mic" g);
        Alcotest.(check bool) "has kernel marks" true (contains ~sub:"K" g));
  ]
