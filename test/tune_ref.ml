(* Reference preparation for the differential oracle in [Test_tune]:
   the [prepare_program] that {!Tune.prepare_program} replaced, kept as
   it was except that it returns the three fields the oracle compares
   and reports a failed run as [Error].  It runs the whole pipeline at
   every candidate block count and dedupes the lowered programs by
   their printed text.  The new code must give the same traces (in the
   same order), the same nblocks -> trace map and the same analytic
   seed on every program. *)

open Machine

type prepared = {
  p_traces : Minic.Interp.event list array;
  p_trace_of_nblocks : (int * int) list;
  p_seed_nblocks : int;
}

let seed_nblocks (cfg : Config.t) (sp : Tune.space) events =
  let bcache = Transforms.Block_size.Cache.create () in
  let params = Runtime.Replay.default_params in
  let mkey = Tune.machine_key cfg in
  let blocks = Runtime.Migrate.blocks_of_events events in
  let best =
    List.fold_left
      (fun acc (b : Runtime.Migrate.block) ->
        let bytes cells =
          float_of_int cells *. params.Runtime.Replay.bytes_per_cell
        in
        let p =
          {
            Transforms.Block_size.transfer_s =
              Cost.transfer_time cfg Cost.H2d
                ~bytes:(bytes (b.blk_h2d_cells + b.blk_resident_cells))
              +. Cost.transfer_time cfg Cost.D2h
                   ~bytes:(bytes b.blk_d2h_cells);
            compute_s =
              float_of_int b.blk_work *. params.Runtime.Replay.seconds_per_stmt;
            launch_s = Cost.launch_time cfg;
          }
        in
        let key =
          Printf.sprintf "%s|h2d=%d,res=%d,d2h=%d,work=%d" mkey
            b.blk_h2d_cells b.blk_resident_cells b.blk_d2h_cells b.blk_work
        in
        let n =
          Transforms.Block_size.Cache.choose bcache ~key
            ~candidates:sp.Tune.sp_nblocks p
        in
        match acc with
        | Some (work, _) when work >= b.blk_work -> acc
        | _ -> Some (b.blk_work, n))
      None blocks
  in
  match best with None -> Comp.default_nblocks | Some (_, n) -> n

let prepare_program ?(base = Config.paper_default) ?nblocks ~max_devices
    ~max_streams prog : (prepared, string) result =
  let sp = Tune.space ?nblocks ~max_devices ~max_streams () in
  let texts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let traces = ref [] and ntraces = ref 0 in
  match
    List.map
      (fun nb ->
        let optimized, _ = Comp.optimize ~nblocks:nb prog in
        let text = Minic.Pretty.program_to_string optimized in
        match Hashtbl.find_opt texts text with
        | Some idx -> (nb, idx)
        | None ->
            let events =
              match Minic.Compile_eval.run_compiled optimized with
              | Ok o -> o.Minic.Interp.events
              | Error e -> failwith e
            in
            let idx = !ntraces in
            incr ntraces;
            Hashtbl.add texts text idx;
            traces := events :: !traces;
            (nb, idx))
      sp.Tune.sp_nblocks
  with
  | exception Failure e -> Error e
  | trace_of_nblocks ->
      let traces = Array.of_list (List.rev !traces) in
      let default_trace =
        traces.(List.assoc Comp.default_nblocks trace_of_nblocks)
      in
      Ok
        {
          p_traces = traces;
          p_trace_of_nblocks = trace_of_nblocks;
          p_seed_nblocks = seed_nblocks base sp default_trace;
        }
