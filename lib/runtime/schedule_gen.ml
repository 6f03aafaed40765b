(** Lowering of (shape, strategy) pairs to task graphs for the event
    engine, and the resulting timings.  This is where the pipelining of
    data streaming, the launch-count arithmetic of offload merging, and
    the fault-vs-DMA contrast of the shared-memory mechanism become
    schedules. *)

open Machine
module P = Plan

let mic_compute cfg (s : P.shape) = Cost.mic_time cfg s.kernel ~iters:s.iters

(* benchmarks may pin their own host thread count (dedup 5, ferret 6) *)
let cpu_compute (cfg : Machine.Config.t) (s : P.shape) =
  let cfg =
    match s.cpu_threads with
    | None -> cfg
    | Some n ->
        { cfg with Machine.Config.cpu = { cfg.Machine.Config.cpu with threads_used = n } }
  in
  Cost.cpu_time cfg s.kernel ~iters:s.iters

(** Task graph for one (shape, strategy).  The graph covers the
    offloadable part of the application only; [host_serial_s] is added
    by {!total_time}.

    [?alive] restricts placement to the listed devices (default: all
    of [cfg.devices]); the migration ladder of {!schedule_recovered}
    shrinks it as devices die.  Streaming spreads its blocks
    round-robin over every alive (device, stream) unit; the other
    strategies run on the first alive device. *)
let tasks ?obs ?alive cfg (shape : P.shape) (strategy : P.strategy) :
    Task.t list =
  let b = Task.builder () in
  let alive =
    match alive with
    | Some (_ :: _ as l) -> List.sort_uniq compare l
    | Some [] | None ->
        List.init (max 1 cfg.Machine.Config.devices) Fun.id
  in
  let dev0 = List.hd alive in
  let mic = Task.Mic_exec (dev0, 0) in
  let h2d = Task.Pcie_h2d dev0 in
  let d2h = Task.Pcie_d2h dev0 in
  (* half-duplex links serialize both directions on one channel (per
     device); the observability kind survives the remap, so d2h
     traffic is still accounted as d2h *)
  let add ?deps ?kind ?bytes ~label ~resource ~duration () =
    let resource =
      match (cfg.Machine.Config.pcie.duplex, resource) with
      | Machine.Config.Half_duplex, Task.Pcie_d2h d -> Task.Pcie_h2d d
      | _ -> resource
    in
    Task.add b ?deps ?kind ?bytes ~label ~resource ~duration ()
  in
  let bump ?(by = 1) name =
    match obs with None -> () | Some o -> Obs.incr ~by o name
  in
  (match strategy with
  | P.Host_parallel ->
      let per_offload = cpu_compute cfg shape in
      let prev = ref [] in
      for r = 0 to shape.outer_repeats - 1 do
        for j = 0 to shape.inner_offloads - 1 do
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "cpu-loop r%d.%d" r j)
              ~resource:Task.Cpu_exec ~duration:per_offload ()
          in
          prev := [ id ]
        done;
        if shape.host_glue_s > 0. then begin
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "glue r%d" r)
              ~resource:Task.Cpu_exec ~duration:shape.host_glue_s ()
          in
          prev := [ id ]
        end
      done
  | P.Naive_offload ->
      (* every offload synchronously: in-transfer, launch+compute,
         out-transfer; glue on the host between outer iterations *)
      let compute = mic_compute cfg shape in
      let prev = ref [] in
      for r = 0 to shape.outer_repeats - 1 do
        for j = 0 to shape.inner_offloads - 1 do
          (* loop-invariant data is allocated and transferred once
             (alloc_if/free_if reuse, standard in the ported codes) *)
          let h2d_bytes =
            shape.bytes_in
            +. if r = 0 && j = 0 then shape.invariant_bytes else 0.
          in
          let t_in =
            add ~deps:!prev
              ~label:(Printf.sprintf "h2d r%d.%d" r j)
              ~resource:h2d ~kind:Obs.H2d ~bytes:h2d_bytes
              ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:h2d_bytes)
              ()
          in
          bump "runtime.launches";
          let t_k =
            add ~deps:[ t_in ]
              ~label:(Printf.sprintf "kernel r%d.%d" r j)
              ~resource:mic ~kind:Obs.Kernel
              ~duration:(Cost.launch_time ?obs cfg +. compute)
              ()
          in
          let t_out =
            add ~deps:[ t_k ]
              ~label:(Printf.sprintf "d2h r%d.%d" r j)
              ~resource:d2h ~kind:Obs.D2h ~bytes:shape.bytes_out
              ~duration:
                (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
              ()
          in
          prev := [ t_out ]
        done;
        if shape.host_glue_s > 0. then begin
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "glue r%d" r)
              ~resource:Task.Cpu_exec ~duration:shape.host_glue_s ()
          in
          prev := [ id ]
        end
      done
  | P.Merged { streamed; nblocks } ->
      (* one launch around the whole outer loop: data up once, all
         compute (and the glue, slowly) on the device, results back.
         The device work is modeled as one chunk per outer iteration so
         a streamed up-front transfer can overlap with the first
         iterations. *)
      let compute = mic_compute cfg shape in
      let chunk =
        (float_of_int shape.inner_offloads *. compute)
        +. Cost.mic_serial_time cfg ~cpu_seconds:shape.host_glue_s
      in
      (* the merged clause set is the union over the inner offloads *)
      let h2d_bytes =
        (shape.bytes_in *. float_of_int shape.inner_offloads)
        +. shape.invariant_bytes
      in
      let n_in = if streamed then max 1 nblocks else 1 in
      let in_ids =
        List.init n_in (fun i ->
            let blk_bytes = h2d_bytes /. float_of_int n_in in
            add
              ~label:(Printf.sprintf "h2d %d/%d" (i + 1) n_in)
              ~resource:h2d ~kind:Obs.H2d ~bytes:blk_bytes
              ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:blk_bytes)
              ())
      in
      bump "runtime.launches";
      let launch =
        add ~label:"launch merged" ~resource:mic ~kind:Obs.Launch
          ~duration:(Cost.launch_time ?obs cfg) ()
      in
      let first_dep =
        (* streamed: start once the first block landed; otherwise wait
           for the whole transfer *)
        if streamed then [ launch; List.hd in_ids ]
        else launch :: in_ids
      in
      let prev = ref first_dep in
      let last = ref launch in
      for r = 0 to shape.outer_repeats - 1 do
        let id =
          add ~deps:!prev
            ~label:(Printf.sprintf "merged chunk r%d" r)
            ~resource:mic ~kind:Obs.Kernel ~duration:chunk ()
        in
        prev := [ id ];
        last := id
      done;
      ignore
        (add
           ~deps:(!last :: in_ids)
           ~label:"d2h all" ~resource:d2h ~kind:Obs.D2h
           ~bytes:shape.bytes_out
           ~duration:
             (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
           ())
  | P.Streamed { nblocks; double_buffered; persistent; repack } ->
      (* streamed pipeline per offload instance, chained across the
         outer structure like the naive schedule.  Blocks round-robin
         over every alive (device, stream) unit: consecutive blocks
         land on distinct devices (spreading the PCIe load), streams
         of one device partition its cores (a stream's kernel is
         [streams] times slower) but contend for the device's one
         link.  One unit — the classic machine — reproduces the
         historic single-device graph exactly. *)
      let grid =
        Array.of_list
          (P.placements ~alive ~streams:cfg.Machine.Config.streams)
      in
      let nunits = Array.length grid in
      let n = max 1 nblocks in
      let compute_blk =
        mic_compute cfg shape /. float_of_int n
        *. float_of_int (max 1 cfg.Machine.Config.streams)
      in
      let in_blk = shape.bytes_in /. float_of_int n in
      let out_blk = shape.bytes_out /. float_of_int n in
      (* one model evaluation here; the per-block signal/launch events
         are counted as the blocks are laid down below *)
      let per_block_overhead =
        if persistent then Cost.signal_time ?obs cfg
        else Cost.launch_time ?obs cfg
      in
      (* the invariant data goes whole to every alive device, once,
         before everything; each unit's persistent kernel is launched
         once, after its own device's copy has landed *)
      let inv_ids =
        if shape.invariant_bytes > 0. then
          List.map
            (fun d ->
              ( d,
                add
                  ~label:
                    (if nunits = 1 then "h2d invariant"
                     else Printf.sprintf "h2d invariant d%d" d)
                  ~resource:(Task.Pcie_h2d d) ~kind:Obs.H2d
                  ~bytes:shape.invariant_bytes
                  ~duration:
                    (Cost.transfer_time ?obs cfg Cost.H2d
                       ~bytes:shape.invariant_bytes)
                  () ))
            alive
        else []
      in
      let inv_of d =
        List.filter_map
          (fun (d', id) -> if d' = d then Some id else None)
          inv_ids
      in
      let pre0 = List.map snd inv_ids in
      let pre0 =
        if persistent then
          Array.to_list
            (Array.map
               (fun (d, s) ->
                 bump "runtime.launches";
                 add ~deps:(inv_of d)
                   ~label:
                     (if nunits = 1 then "launch persistent"
                      else Printf.sprintf "launch persistent u%d.%d" d s)
                   ~resource:(Task.Mic_exec (d, s))
                   ~kind:Obs.Launch
                   ~duration:(Cost.launch_time ?obs cfg)
                   ())
               grid)
          @ pre0
        else pre0
      in
      let prev = ref pre0 in
      for r = 0 to shape.outer_repeats - 1 do
        for j = 0 to shape.inner_offloads - 1 do
          let kernel_ids = Array.make n (-1) in
          let out_ids = ref [] in
          let repack_prev = ref [] in
          let rj = "r" ^ string_of_int r ^ "." ^ string_of_int j ^ " b" in
          for blk = 0 to n - 1 do
            let ud, us = grid.(blk mod nunits) in
            (* "r%d.%d b%d", built without Printf: this loop lays down
               every block of every offload instance *)
            let rjb = rj ^ string_of_int blk in
            (* host-side regularization of this block, if any *)
            let repack_dep =
              match repack with
              | None -> []
              | Some { P.repack_s_per_block; pipelined } ->
                  let deps =
                    (* non-pipelined repacking waits for the previous
                       block's kernel: no overlap *)
                    (if pipelined then !repack_prev
                     else if blk > 0 then [ kernel_ids.(blk - 1) ]
                     else [])
                    @ !prev
                  in
                  bump "runtime.repacks";
                  let id =
                    add ~deps
                      ~label:("repack " ^ rjb)
                      ~resource:Task.Cpu_exec ~kind:Obs.Repack
                      ~duration:repack_s_per_block ()
                  in
                  repack_prev := [ id ];
                  [ id ]
            in
            (* double buffering: each unit holds two buffers, so block
               b's transfer reuses the buffer of the unit's
               previous-but-one block and must wait for its kernel *)
            let buffer_dep =
              if double_buffered && blk >= 2 * nunits then
                [ kernel_ids.(blk - (2 * nunits)) ]
              else []
            in
            let t_in =
              add
                ~deps:(!prev @ repack_dep @ buffer_dep)
                ~label:("h2d " ^ rjb)
                ~resource:(Task.Pcie_h2d ud) ~kind:Obs.H2d ~bytes:in_blk
                ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:in_blk)
                ()
            in
            (* blocks within one unit serialize in issue order *)
            let k_deps =
              t_in
              :: (if blk >= nunits then [ kernel_ids.(blk - nunits) ]
                  else [])
            in
            bump (if persistent then "runtime.signals" else "runtime.launches");
            let t_k =
              add ~deps:k_deps
                ~label:("kernel " ^ rjb)
                ~resource:(Task.Mic_exec (ud, us))
                ~kind:Obs.Kernel
                ~duration:(per_block_overhead +. compute_blk)
                ()
            in
            kernel_ids.(blk) <- t_k;
            let t_out =
              add ~deps:[ t_k ]
                ~label:("d2h " ^ rjb)
                ~resource:(Task.Pcie_d2h ud) ~kind:Obs.D2h ~bytes:out_blk
                ~duration:(Cost.transfer_time ?obs cfg Cost.D2h ~bytes:out_blk)
                ()
            in
            out_ids := t_out :: !out_ids
          done;
          prev := !out_ids
        done;
        if shape.host_glue_s > 0. then begin
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "glue r%d" r)
              ~resource:Task.Cpu_exec ~duration:shape.host_glue_s ()
          in
          prev := [ id ]
        end
      done
  | P.Shared_myo ->
      (* MYO: page-granularity on-demand copies.  Touched pages fault
         once per offload round (synchronization boundaries invalidate
         the device copies); each fault pays software handling plus a
         page-sized, non-DMA copy, and every device access pays a
         coherence-state check. *)
      let sh = P.shared_of_shape shape in
      let touched = P.myo_touched_pages cfg sh in
      let per_page =
        cfg.myo.fault_cost_s
        +. float_of_int cfg.myo.page_bytes /. (cfg.myo.page_bw_gbs *. 1e9)
      in
      let fault_per_round = float_of_int touched *. per_page in
      let fault_bytes = float_of_int (touched * cfg.myo.page_bytes) in
      let rounds = max 1 sh.myo_rounds in
      let compute_per_round =
        mic_compute cfg shape *. sh.myo_access_penalty /. float_of_int rounds
      in
      bump ~by:sh.shared_allocs "runtime.myo_allocs";
      (* allocation bookkeeping on the host *)
      let t_alloc =
        add ~label:"myo allocs" ~resource:Task.Cpu_exec
          ~duration:(float_of_int sh.shared_allocs *. 2.0e-6)
          ()
      in
      let prev = ref [ t_alloc ] in
      for r = 0 to rounds - 1 do
        bump ~by:touched "runtime.page_faults";
        let t_fault =
          add ~deps:!prev
            ~label:(Printf.sprintf "myo faults r%d" r)
            ~resource:h2d ~kind:Obs.Page_fault ~bytes:fault_bytes
            ~duration:fault_per_round ()
        in
        bump "runtime.launches";
        let t_k =
          add ~deps:[ t_fault ]
            ~label:(Printf.sprintf "kernel r%d" r)
            ~resource:mic ~kind:Obs.Kernel
            ~duration:(Cost.launch_time ?obs cfg +. compute_per_round)
            ()
        in
        prev := [ t_k ]
      done;
      ignore
        (add ~deps:!prev ~label:"d2h results" ~resource:d2h
           ~kind:Obs.D2h ~bytes:shape.bytes_out
           ~duration:
             (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
           ())
  | P.Shared_segbuf { seg_bytes } ->
      (* our mechanism: whole preallocated segments moved by DMA; O(1)
         pointer translation via the delta table costs a small per-access
         overhead *)
      let sh = P.shared_of_shape shape in
      let segs = max 1 ((sh.shared_bytes + seg_bytes - 1) / seg_bytes) in
      bump ~by:sh.shared_allocs "runtime.segbuf_allocs";
      bump ~by:segs "runtime.seg_allocs";
      let t_alloc =
        add ~label:"segbuf allocs" ~resource:Task.Cpu_exec ~kind:Obs.Seg_alloc
          ~duration:(float_of_int sh.shared_allocs *. 0.05e-6)
          ()
      in
      let seg_tasks =
        List.init segs (fun i ->
            let seg_xfer =
              float_of_int
                (max 0 (min seg_bytes (sh.shared_bytes - (i * seg_bytes))))
            in
            add ~deps:[ t_alloc ]
              ~label:(Printf.sprintf "dma seg%d" i)
              ~resource:h2d ~kind:Obs.H2d ~bytes:seg_xfer
              ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:seg_xfer)
              ())
      in
      let translate_overhead =
        float_of_int sh.objects_touched *. 1.0e-9
      in
      bump "runtime.launches";
      let t_k =
        add ~deps:seg_tasks ~label:"kernel" ~resource:mic
          ~kind:Obs.Kernel
          ~duration:
            (Cost.launch_time ?obs cfg +. mic_compute cfg shape
           +. translate_overhead)
          ()
      in
      ignore
        (add ~deps:[ t_k ] ~label:"d2h results" ~resource:d2h
           ~kind:Obs.D2h ~bytes:shape.bytes_out
           ~duration:
             (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
           ()));
  Task.tasks b

(** Full schedule, for tracing.  When [cfg.fault] is a live fault
    plan, transfer retries and device resets are injected by the
    engine (each device consulting its own plan); an unrecoverable
    device death escapes as {!Fault.Device_dead} — use
    {!schedule_recovered} to absorb it by migration / fallback. *)
let schedule ?obs (cfg : Machine.Config.t) shape strategy =
  let faults =
    Fault.fleet_of ?obs ~devices:cfg.Machine.Config.devices
      cfg.Machine.Config.fault
  in
  Engine.schedule ?obs ?faults (tasks ?obs cfg shape strategy)

(** Makespan of the offloadable part under a strategy. *)
let region_time ?obs cfg shape strategy =
  (schedule ?obs cfg shape strategy).Engine.makespan

(** Whole-application time: region time plus the host serial part. *)
let total_time ?obs cfg (shape : P.shape) strategy =
  shape.host_serial_s +. region_time ?obs cfg shape strategy

type recovered = {
  rec_result : Engine.result;
  rec_fellback : bool;  (** every device died and the CPU took over *)
  rec_died_at : float option;  (** when the first device died *)
  rec_migrated : int;
      (** blocks re-run on surviving devices across all migrations *)
  rec_dead : int list;  (** devices declared dead, in death order *)
}

(* kernel blocks in a task graph: what a migration re-runs *)
let kernel_blocks ts =
  List.length
    (List.filter
       (fun (t : Task.t) ->
         match t.Task.resource with
         | Task.Mic_exec _ -> t.Task.kind = Some Obs.Kernel
         | _ -> false)
       ts)

(* charge already-lost wall-clock time as a host-side Retry prefix
   that every root of the graph waits on *)
let with_lost_prefix ts ~label ~lost =
  if lost <= 0. then ts
  else
    let lid =
      1 + List.fold_left (fun a (t : Task.t) -> max a t.Task.id) (-1) ts
    in
    {
      Task.id = lid;
      label;
      resource = Task.Cpu_exec;
      duration = lost;
      deps = [];
      kind = Some Obs.Retry;
      bytes = 0.;
      reset_xfer_s = 0.;
    }
    :: List.map
         (fun (t : Task.t) ->
           if t.Task.deps = [] then { t with Task.deps = [ lid ] } else t)
         ts

(** Like {!schedule}, but device death walks the degradation ladder
    instead of escaping: when a device is declared dead, the wall
    clock it burnt is charged up front and the region's blocks re-run
    on the surviving devices (bumping [fault.migrated_blocks] and
    [fault.dead_devices]); only when {e every} device has died does
    the host take over, re-running the region as [Host_parallel] —
    and without [cpu_fallback] that final death re-escapes.  Each
    migration instantiates a fresh fleet, so surviving devices keep
    their own (per-instance) fault plans. *)
let schedule_recovered ?obs (cfg : Machine.Config.t) shape strategy =
  let spec = cfg.Machine.Config.fault in
  let devices = max 1 cfg.Machine.Config.devices in
  if Fault.is_none spec then
    {
      rec_result = Engine.schedule ?obs (tasks ?obs cfg shape strategy);
      rec_fellback = false;
      rec_died_at = None;
      rec_migrated = 0;
      rec_dead = [];
    }
  else
    let bump ?(by = 1) name =
      match obs with None -> () | Some o -> Obs.incr ~by o name
    in
    let rec attempt alive ~lost ~first_death ~migrated ~dead =
      let fleet = Fault.fleet ?obs ~devices spec in
      let body = tasks ?obs ~alive cfg shape strategy in
      let migrated =
        if dead = [] then migrated
        else begin
          let blocks = kernel_blocks body in
          bump ~by:blocks "fault.migrated_blocks";
          migrated + blocks
        end
      in
      let ts = with_lost_prefix body ~label:"migrated (lost work)" ~lost in
      try
        {
          rec_result = Engine.schedule ?obs ~faults:fleet ts;
          rec_fellback = false;
          rec_died_at = first_death;
          rec_migrated = migrated;
          rec_dead = dead;
        }
      with Fault.Device_dead { dev; at; failures } ->
        bump "fault.dead_devices";
        let survivors = List.filter (fun d -> d <> dev) alive in
        let first_death =
          match first_death with Some _ as s -> s | None -> Some at
        in
        let dead = dead @ [ dev ] in
        if survivors <> [] then
          attempt survivors ~lost:(lost +. at) ~first_death ~migrated ~dead
        else if not spec.Fault.policy.Fault.cpu_fallback then
          raise (Fault.Device_dead { dev; at; failures })
        else begin
          Fault.note_fallback (Fault.fleet_plan fleet ~dev);
          let clean = { cfg with Machine.Config.fault = Fault.none } in
          let b = Task.builder () in
          let l =
            Task.add b ~label:"device-dead (lost work)"
              ~resource:Task.Cpu_exec ~kind:Obs.Retry
              ~duration:(lost +. at) ()
          in
          ignore
            (Task.add b ~deps:[ l ] ~label:"cpu fallback"
               ~resource:Task.Cpu_exec ~kind:Obs.Retry
               ~duration:(region_time clean shape P.Host_parallel)
               ());
          {
            rec_result = Engine.schedule ?obs (Task.tasks b);
            rec_fellback = true;
            rec_died_at = first_death;
            rec_migrated = migrated;
            rec_dead = dead;
          }
        end
    in
    attempt
      (List.init devices Fun.id)
      ~lost:0. ~first_death:None ~migrated:0 ~dead:[]

(** Region makespan with device death absorbed by the CPU fallback. *)
let recovered_region_time ?obs cfg shape strategy =
  (schedule_recovered ?obs cfg shape strategy).rec_result.Engine.makespan
