(* The auto-tuner: fleet-spec grammar, search determinism and
   optimality invariants, heterogeneous placement, and the memoized
   block-size chooser. *)

open Helpers
module Config = Machine.Config
module Fleet = Machine.Fleet
module Block_size = Transforms.Block_size

let fleet_ok spec =
  match Fleet.parse spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "%S: %s" spec (Fleet.error_message e)

let fleet_err spec ~sub =
  match Fleet.parse spec with
  | Ok f -> Alcotest.failf "%S: expected error, got %S" spec (Fleet.to_string f)
  | Error e ->
      let msg = Fleet.error_message e in
      if not (contains ~sub msg) then
        Alcotest.failf "%S: error %S lacks %S" spec msg sub

(* ------------------------------------------------------------------ *)
(* Fleet spec grammar                                                 *)
(* ------------------------------------------------------------------ *)

let test_fleet_parse () =
  let f = fleet_ok "devices=2,streams=4,dev1:cores=0.5,bw=0.75" in
  Alcotest.(check int) "devices" 2 f.Fleet.f_devices;
  Alcotest.(check int) "streams" 4 f.Fleet.f_streams;
  (match f.Fleet.f_scales with
  | [ (1, s) ] ->
      Alcotest.(check (float 0.)) "cores" 0.5 s.Config.sc_cores;
      (* the bare bw= clause sticks to the preceding dev1: prefix *)
      Alcotest.(check (float 0.)) "bw" 0.75 s.Config.sc_bw
  | _ -> Alcotest.fail "expected exactly one scale, for device 1");
  let g = fleet_ok "" in
  Alcotest.(check int) "empty spec devices" 1 g.Fleet.f_devices;
  Alcotest.(check int) "empty spec streams" 1 g.Fleet.f_streams;
  (* devN: out of order with devices= still applies *)
  let h = fleet_ok "dev0:bw=0.25,devices=3" in
  Alcotest.(check int) "devices after scale" 3 h.Fleet.f_devices;
  Alcotest.(check (float 0.))
    "bw scale" 0.25
    (List.assoc 0 h.Fleet.f_scales).Config.sc_bw

let test_fleet_roundtrip () =
  List.iter
    (fun spec ->
      let f = fleet_ok spec in
      let f' = fleet_ok (Fleet.to_string f) in
      if f <> f' then
        Alcotest.failf "%S: round-trip %S parsed differently" spec
          (Fleet.to_string f))
    [
      "devices=2,streams=4,dev1:cores=0.5,bw=0.75";
      "devices=1,streams=1";
      "devices=4,streams=2,dev0:cores=0.5,dev2:bw=0.1,dev3:cores=2,bw=3";
      "";
    ]

let test_fleet_errors () =
  fleet_err "devices=0" ~sub:"positive integer";
  fleet_err "devices=two" ~sub:"positive integer";
  fleet_err "streams=-1" ~sub:"positive integer";
  fleet_err "devices=2,dev5:cores=0.5" ~sub:"out of range";
  fleet_err "dev0:cores=-1" ~sub:"finite and positive";
  fleet_err "dev0:cores=nan" ~sub:"finite and positive";
  fleet_err "cores=0.5" ~sub:"devN: prefix";
  fleet_err "dev0:volts=3" ~sub:"cores=F or bw=F";
  fleet_err "devices=2,,streams=2" ~sub:"empty clause";
  fleet_err "frobnicate=1" ~sub:"unknown clause"

let test_fleet_apply () =
  let f = fleet_ok "devices=3,streams=2,dev1:cores=0.5" in
  let cfg = Fleet.apply Config.paper_default f in
  Alcotest.(check int) "devices" 3 cfg.Config.devices;
  Alcotest.(check int) "streams" 2 cfg.Config.streams;
  Alcotest.(check bool) "heterogeneous" false (Config.homogeneous cfg);
  Alcotest.(check (float 0.))
    "scaled device" 0.5
    (Config.scale_for cfg 1).Config.sc_cores;
  Alcotest.(check (float 0.))
    "unscaled device defaults to unit" 1.0
    (Config.scale_for cfg 0).Config.sc_cores

(* ------------------------------------------------------------------ *)
(* Search engine                                                      *)
(* ------------------------------------------------------------------ *)

let check_report name (a : Tune.report) (b : Tune.report) =
  Alcotest.(check string)
    (name ^ ": best config")
    (Tune.config_to_string a.Tune.r_best.Tune.pt_config)
    (Tune.config_to_string b.Tune.r_best.Tune.pt_config);
  Alcotest.(check (float 0.))
    (name ^ ": best makespan")
    a.Tune.r_best.Tune.pt_makespan b.Tune.r_best.Tune.pt_makespan;
  Alcotest.(check int) (name ^ ": explored") a.Tune.r_explored b.Tune.r_explored;
  Alcotest.(check int) (name ^ ": pruned") a.Tune.r_pruned b.Tune.r_pruned;
  Alcotest.(check int)
    (name ^ ": point count")
    (List.length a.Tune.r_points)
    (List.length b.Tune.r_points);
  List.iter2
    (fun (p : Tune.point) (q : Tune.point) ->
      Alcotest.(check string)
        (name ^ ": point config")
        (Tune.config_to_string p.Tune.pt_config)
        (Tune.config_to_string q.Tune.pt_config);
      Alcotest.(check (float 0.))
        (name ^ ": point makespan")
        p.Tune.pt_makespan q.Tune.pt_makespan)
    a.Tune.r_points b.Tune.r_points

let prepared ?base ?(max_devices = 2) ?(max_streams = 2) name =
  let w = Workloads.Registry.find_exn name in
  Tune.prepare ?base ~max_devices ~max_streams w

let test_jobs_determinism () =
  let pre = prepared "blackscholes" in
  let r1 = Tune.run ~jobs:1 pre in
  let r2 = Tune.run ~jobs:2 pre in
  check_report "jobs 1 vs 2" r1 r2

let test_tiebreak_lexicographic () =
  (* constant eval: every point ties, so the winner must be the
     lexicographically smallest config — never an artifact of
     submission or completion order *)
  let sp = Tune.space ~nblocks:[ 4; 2 ] ~max_devices:3 ~max_streams:2 () in
  let r =
    Tune.search ~jobs:2 sp
      ~eval:(fun _ -> 1.0)
      ~keyfn:(fun c -> Tune.config_to_string c)
  in
  Alcotest.(check string)
    "lex-smallest wins the tie" "devices=1,streams=1,nblocks=2"
    (Tune.config_to_string r.Tune.r_best.Tune.pt_config)

let test_shared_key_dedup () =
  (* all configs alias one simulation key: a single evaluation, the
     rest answered from the memo *)
  let sp = Tune.space ~nblocks:[ 10 ] ~max_devices:2 ~max_streams:2 () in
  let evals = ref 0 in
  let r =
    Tune.search sp
      ~eval:(fun _ ->
        incr evals;
        2.0)
      ~keyfn:(fun _ -> "same")
  in
  Alcotest.(check int) "one simulator call" 1 !evals;
  Alcotest.(check int) "explored counts evaluations" 1 r.Tune.r_explored;
  Alcotest.(check bool) "the rest are pruned" true (r.Tune.r_pruned > 0)

let test_default_always_evaluated () =
  let pre = prepared "kmeans" in
  let r = Tune.run pre in
  Alcotest.(check bool)
    "best no worse than default" true
    (r.Tune.r_best.Tune.pt_makespan <= r.Tune.r_default.Tune.pt_makespan);
  Alcotest.(check bool) "speedup >= 1" true (Tune.speedup r >= 1.0)

let test_more_devices_no_worse () =
  (* widening the fleet can only grow the search space, and the best
     point of a superset space is never worse *)
  let best name ~max_devices =
    let pre = prepared name ~max_devices ~max_streams:2 in
    (Tune.run pre).Tune.r_best.Tune.pt_makespan
  in
  List.iter
    (fun name ->
      let b1 = best name ~max_devices:1 in
      let b2 = best name ~max_devices:2 in
      if b2 > b1 then
        Alcotest.failf "%s: 2-device best %.9f worse than 1-device %.9f" name
          b2 b1)
    [ "blackscholes"; "kmeans" ]

let test_hetero_avoids_slow_device () =
  (* device 1 is 20x slower in both compute and transfer: the tuned
     placement must not spread onto it *)
  let base =
    Config.with_scales Config.paper_default
      [ (1, { Config.sc_cores = 0.05; sc_bw = 0.05 }) ]
  in
  let pre = prepared "blackscholes" ~base ~max_devices:2 ~max_streams:2 in
  let r = Tune.run pre in
  Alcotest.(check int)
    "tuner stays off the slow device" 1 r.Tune.r_best.Tune.pt_config.Tune.devices

(* ------------------------------------------------------------------ *)
(* Heterogeneous replay                                               *)
(* ------------------------------------------------------------------ *)

let trace_of name =
  let w = Workloads.Registry.find_exn name in
  let prog, _ = Comp.optimize (Workloads.Workload.program w) in
  match Minic.Compile_eval.run_compiled prog with
  | Ok r -> r.Minic.Interp.events
  | Error e -> Alcotest.failf "%s: %s" name e

let test_unit_scales_bitwise_neutral () =
  (* explicit all-1.0 scales must replay bit-identically to no scales
     at all: the homogeneous fast path is exact, not approximate *)
  let events = trace_of "blackscholes" in
  let cfg = Config.with_devices Config.paper_default ~devices:2 ~streams:2 in
  let scaled =
    Config.with_scales cfg
      [ (0, Config.unit_scale); (1, Config.unit_scale) ]
  in
  Alcotest.(check (float 0.))
    "identical makespan" (Runtime.Migrate.makespan cfg events)
    (Runtime.Migrate.makespan scaled events)

let test_slow_scales_hurt () =
  let events = trace_of "blackscholes" in
  let cfg = Config.with_devices Config.paper_default ~devices:1 ~streams:1 in
  let slow scales = Config.with_scales cfg scales in
  let base = Runtime.Migrate.makespan cfg events in
  let slow_cores =
    Runtime.Migrate.makespan
      (slow [ (0, { Config.sc_cores = 0.25; sc_bw = 1.0 }) ])
      events
  in
  let slow_bw =
    Runtime.Migrate.makespan
      (slow [ (0, { Config.sc_cores = 1.0; sc_bw = 0.25 }) ])
      events
  in
  Alcotest.(check bool) "slower cores slow the replay" true (slow_cores > base);
  Alcotest.(check bool) "slower link slows the replay" true (slow_bw > base)

(* ------------------------------------------------------------------ *)
(* Memoized block-size chooser                                        *)
(* ------------------------------------------------------------------ *)

let test_block_cache_parity () =
  let params =
    [
      { Block_size.transfer_s = 0.2; compute_s = 0.1; launch_s = 0.001 };
      { Block_size.transfer_s = 0.01; compute_s = 0.5; launch_s = 0.0001 };
      { Block_size.transfer_s = 1.0; compute_s = 0.0; launch_s = 0.01 };
    ]
  in
  let cache = Block_size.Cache.create () in
  List.iteri
    (fun i p ->
      let key = Printf.sprintf "machine|shape%d" i in
      (* twice: the second answer comes from the table *)
      for _ = 1 to 2 do
        Alcotest.(check int)
          (key ^ ": memoized == unmemoized")
          (Block_size.choose p)
          (Block_size.Cache.choose cache ~key p)
      done;
      let cands = [ 10; 20; 40; 50 ] in
      Alcotest.(check int)
        (key ^ ": with candidates")
        (Block_size.choose ~candidates:cands p)
        (Block_size.Cache.choose cache ~key ~candidates:cands p))
    params;
  Alcotest.(check int)
    "distinct (key, candidates) pairs memoized" 6
    (Block_size.Cache.size cache)

let counter obs name = List.assoc_opt name (Obs.counters obs)

let test_block_cache_counters () =
  let obs = Obs.create () in
  let cache = Block_size.Cache.create ~obs () in
  let p = { Block_size.transfer_s = 0.2; compute_s = 0.1; launch_s = 0.001 } in
  ignore (Block_size.Cache.choose cache ~key:"k" p);
  ignore (Block_size.Cache.choose cache ~key:"k" p);
  ignore (Block_size.Cache.choose cache ~key:"k2" p);
  Alcotest.(check (option int))
    "hits" (Some 1)
    (counter obs "tune.block_cache.hits");
  Alcotest.(check (option int))
    "misses" (Some 2)
    (counter obs "tune.block_cache.misses")

let test_tune_cache_shared () =
  (* a shared cross-search cache turns the second identical search
     into pure hits: zero fresh simulator evaluations *)
  let obs = Obs.create () in
  let cache = Tune.Cache.create ~obs () in
  let pre = prepared "kmeans" in
  let r1 = Tune.run ~obs ~cache pre in
  let r2 = Tune.run ~obs ~cache pre in
  Alcotest.(check string)
    "cached rerun picks the same winner"
    (Tune.config_to_string r1.Tune.r_best.Tune.pt_config)
    (Tune.config_to_string r2.Tune.r_best.Tune.pt_config);
  Alcotest.(check (float 0.))
    "cached rerun reproduces the makespan" r1.Tune.r_best.Tune.pt_makespan
    r2.Tune.r_best.Tune.pt_makespan;
  Alcotest.(check int) "second search simulates nothing" 0 r2.Tune.r_explored;
  match counter obs "tune.cache.hits" with
  | Some h when h >= r1.Tune.r_explored -> ()
  | h ->
      Alcotest.failf "expected >= %d cache hits, got %s" r1.Tune.r_explored
        (match h with Some h -> string_of_int h | None -> "none")

(* ------------------------------------------------------------------ *)
(* Preparation against the printed-text reference                     *)
(* ------------------------------------------------------------------ *)

(* [Tune.prepare_program] must give {!Tune_ref}'s traces, in the same
   order, the same nblocks -> trace map and the same seed; a program
   that fails at run time must fail both with the same message *)
let same_as_ref ~what ?base ?nblocks ~max_devices ~max_streams prog =
  let got =
    match
      Tune.prepare_program ?base ?nblocks ~max_devices ~max_streams ~name:what
        prog
    with
    | p -> Ok p
    | exception Tune.Program_failed { msg; _ } -> Error msg
  in
  match
    (Tune_ref.prepare_program ?base ?nblocks ~max_devices ~max_streams prog, got)
  with
  | Ok r, Ok p ->
      Alcotest.(check int)
        (what ^ ": trace count")
        (Array.length r.Tune_ref.p_traces)
        (Array.length p.Tune.p_traces);
      if r.Tune_ref.p_traces <> p.Tune.p_traces then
        Alcotest.failf "%s: traces differ" what;
      Alcotest.(check (list (pair int int)))
        (what ^ ": trace of nblocks")
        r.Tune_ref.p_trace_of_nblocks p.Tune.p_trace_of_nblocks;
      Alcotest.(check int)
        (what ^ ": seed") r.Tune_ref.p_seed_nblocks p.Tune.p_seed_nblocks
  | Error a, Error b -> Alcotest.(check string) (what ^ ": failure") a b
  | Ok _, Error e -> Alcotest.failf "%s: only the new code failed: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s: only the reference failed: %s" what e

let test_prepare_registry () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = Workloads.Workload.program w in
      List.iter
        (fun (grid, nblocks) ->
          List.iter
            (fun (max_devices, max_streams) ->
              same_as_ref
                ~what:
                  (Printf.sprintf "%s %s %dx%d" w.Workloads.Workload.name grid
                     max_devices max_streams)
                ?nblocks ~max_devices ~max_streams prog)
            [ (4, 2); (1, 1) ])
        [ ("default", None); ("[3;7;20]", Some [ 3; 7; 20 ]) ])
    Workloads.Registry.all

let test_prepare_generated () =
  let gens =
    [
      ("streamable", Gen.streamable_program);
      ("stencil", Gen.stencil_program);
      ("inout", Gen.inout_program);
    ]
  in
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun (n, seed) ->
          same_as_ref
            ~what:(Printf.sprintf "%s n=%d seed=%d" name n seed)
            ~max_devices:2 ~max_streams:2
            (parse (gen ~n ~seed)))
        [ (3, 0); (17, 5); (40, 11) ])
    gens;
  List.iter
    (fun pat ->
      for seed = 0 to 3 do
        same_as_ref
          ~what:
            (Printf.sprintf "genprog %s seed=%d"
               (Check.Genprog.pattern_name pat)
               seed)
          ~max_devices:2 ~max_streams:2
          (parse (Check.Genprog.generate pat ~seed))
      done)
    Check.Genprog.all_patterns

let test_prepare_failure () =
  (* writes past the end of [a]: the run fails before any trace *)
  same_as_ref ~what:"out of bounds" ~max_devices:1 ~max_streams:1
    (parse
       "int main(void) { int a[4]; for (int i = 0; i < 8; i++) { a[i] = i; \
        } return 0; }")

let suite =
  [
    tc "fleet spec parses devices, streams, sticky devN: scales"
      test_fleet_parse;
    tc "fleet spec round-trips through to_string" test_fleet_roundtrip;
    tc "malformed fleet specs are typed errors" test_fleet_errors;
    tc "fleet installs into the machine config" test_fleet_apply;
    tc "search is deterministic across --jobs widths" test_jobs_determinism;
    tc "ties break by lexicographic config order" test_tiebreak_lexicographic;
    tc "configs sharing a simulation key share one evaluation"
      test_shared_key_dedup;
    tc "tuned point never loses to the default" test_default_always_evaluated;
    tc "adding a device never worsens the best makespan"
      test_more_devices_no_worse;
    tc "tuner avoids a 20x-slower device" test_hetero_avoids_slow_device;
    tc "unit scales replay bit-identically to no scales"
      test_unit_scales_bitwise_neutral;
    tc "slower cores or link never speed up a replay" test_slow_scales_hurt;
    tc "memoized block-size choice equals unmemoized" test_block_cache_parity;
    tc "block cache counts hits and misses" test_block_cache_counters;
    tc "shared tune cache answers a repeat search without simulating"
      test_tune_cache_shared;
    tc "prepare equals the printed-text reference on the registry"
      test_prepare_registry;
    tc "prepare equals the printed-text reference on generated programs"
      test_prepare_generated;
    tc "a failing program fails prepare with the reference's message"
      test_prepare_failure;
  ]
