(* tune_fleet: [Tune.prepare] + [Tune.run] for each registry workload on
   a 4-device x 2-stream fleet, one workload search per op.

   A round is one pass over the 12 workloads, in a seeded order, with
   fresh [Tune.Cache] and [Block_size.Cache] as a fresh [compc tune]
   would have.  Every search is checked: the tuned point is no slower
   than the default, re-pricing the winner with [Tune.eval_config]
   gives the reported makespan, and the winner equals a one-domain
   search done in set-up. *)

open Common

let devices = 4
let streams = 2

(* Fresh caches, as one [compc tune] process has; their hit and miss
   counters land in [obs]. *)
let fresh_caches obs =
  (Tune.Cache.create ~obs (), Transforms.Block_size.Cache.create ~obs ())

let verify ~reference (w : Workloads.Workload.t) pre (rep : Tune.report) =
  let best = rep.r_best and default = rep.r_default in
  let ref_best : Tune.point = List.assoc w.name reference in
  if best.pt_makespan > default.pt_makespan then
    Wrong (w.name ^ ": tuned point slower than the default")
  else if Tune.eval_config pre best.pt_config <> best.pt_makespan then
    Wrong (w.name ^ ": re-priced winner differs from the reported makespan")
  else if
    Tune.compare_config best.pt_config ref_best.pt_config <> 0
    || best.pt_makespan <> ref_best.pt_makespan
  then
    Wrong
      (Printf.sprintf "%s: winner %s differs from the one-domain search's %s"
         w.name
         (Tune.config_to_string best.pt_config)
         (Tune.config_to_string ref_best.pt_config))
  else Pass

(* One pass; [on_op] sees each op's search, untimed; [obs] collects
   the caches' counters. *)
let pass ~traced ~reference ~order ?(obs = Obs.create ()) ?(on_op = fun _ -> ())
    () =
  let cache, block_cache = fresh_caches obs in
  List.map
    (fun (w : Workloads.Workload.t) ->
      let tr = if traced then Some (Trace.new_op ()) else None in
      let res, t0, t1 =
        timed (fun () ->
            try
              Ok
                (Trace.with_span tr "tune_fleet.op" (fun () ->
                     let pre =
                       Trace.with_span tr "tune.prepare" (fun () ->
                           Tune.prepare ~block_cache ~max_devices:devices
                             ~max_streams:streams w)
                     in
                     let rep =
                       Trace.with_span tr "tune.search" (fun () ->
                           Tune.run ~jobs:pool_width ~cache pre)
                     in
                     (pre, rep)))
            with e -> Error (w.name ^ ": " ^ Printexc.to_string e))
      in
      let outcome =
        match res with
        | Error m -> Failed m
        | Ok (pre, rep) ->
            Trace.count tr "tune.explored" (float_of_int rep.Tune.r_explored);
            on_op rep;
            verify ~reference w pre rep
      in
      ({ t0; t1; outcome; cls = "" }, tr))
    order

let setup ~seed =
  (* the one-domain reference search every op's winner must match *)
  let cache, block_cache = fresh_caches (Obs.create ()) in
  let reference =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let pre =
          Tune.prepare ~block_cache ~max_devices:devices ~max_streams:streams w
        in
        (w.name, (Tune.run ~jobs:1 ~cache pre).Tune.r_best))
      Workloads.Registry.all
  in
  (* every pass in its own seeded order, as in oneshot *)
  let order k = shuffle ~seed:(Parallel.derive_seed ~root:seed k) Workloads.Registry.all in
  let round ~traced k =
    let ops, r0, r1 = timed (fun () -> pass ~traced ~reference ~order:(order k) ()) in
    of_ops ~r0 ~r1 ops
  in
  let det () =
    let best = ref [] and explored = ref 0 and pruned = ref 0 in
    let obs = Obs.create () in
    ignore
      (pass ~traced:false ~reference ~order:(order 0) ~obs
         ~on_op:(fun rep ->
           best := rep.Tune.r_best.Tune.pt_makespan :: !best;
           explored := !explored + rep.Tune.r_explored;
           pruned := !pruned + rep.Tune.r_pruned)
         ());
    let hits = Obs.count obs "tune.cache.hits"
    and misses = Obs.count obs "tune.cache.misses" in
    [
      metric "gen_makespan_ms" "ms_sim" (1e3 *. geomean !best);
      metric "tune.explored" "count" (float_of_int !explored);
      metric "tune.pruned" "count" (float_of_int !pruned);
      metric "tune.cache_hit_ratio" "share"
        (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ]
  in
  let layers rounds =
    let t = Trace.layers (List.concat_map (fun r -> r.spans) rounds) in
    let us name = metric (name ^ ".us") "us" (Trace.mean_us t name) in
    [
      us "tune.prepare";
      us "tune.search";
      metric "tune.us_per_candidate" "us"
        (1e6 *. (Trace.layer t "tune.search").Trace.self_s
        /. total rounds "tune.explored");
    ]
  in
  { mem_run = rounds_of round 30; round; det; layers }
