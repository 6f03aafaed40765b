(* The benchmark's entry point: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] sets the workload up several times (reporting the median
   set-up time), runs a fixed amount of its work and reads the heap
   high-water mark, runs rounds of ops for S seconds untraced, and
   prints the end-to-end metrics, wall times in reference seconds (see
   [Calib]).  [--trace 1] prints the per-layer metrics:
   every layer is measured on the workload it belongs to, so all four
   workloads run traced, S/5 seconds each, and the named workload runs
   another S/5 seconds of untraced rounds, interleaved with its traced
   ones, to price the tracing.  The spans go to
   [.perfbench/trace-NAME-seedN.json] as Chrome trace-event JSON.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  The exit code is
   non-zero only on a harness error; a failed op is counted, not
   fatal. *)

open Common

let workloads =
  [
    ("oneshot", Oneshot.setup);
    ("check_sweep", Check_sweep.setup);
    ("serve_mix", Serve_mix.setup);
    ("tune_fleet", Tune_fleet.setup);
  ]

(* Set-up runs at least [setup_min_reps] times, and again until
   [setup_budget_s] of wall time has passed or [setup_max_reps] ran;
   [setup_s] is the median.  A cheap set-up is repeated many times, so
   its median does not rest on a handful of millisecond samples. *)
let setup_min_reps = 5
let setup_max_reps = 100
let setup_budget_s = 1.

let usage () =
  prerr_endline
    "usage: main.exe --workload (oneshot|check_sweep|serve_mix|tune_fleet) \
     --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  if not (List.mem_assoc name workloads) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (name, int "seed", float_of_int seconds, trace = 1)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A round in reference seconds ([scaled]) or in wall seconds with the
   calibration probes left out ([raw]).  Call them before the next
   [Calib.start]. *)
let rescaled len (r : round) =
  {
    r with
    r1 = r.r0 +. len r.r0 r.r1;
    ops = List.map (fun (o : op) -> { o with t1 = o.t0 +. len o.t0 o.t1 }) r.ops;
  }

let scaled = rescaled Calib.reference
let raw = rescaled Calib.busy

(* Rounds until [seconds] of wall time have passed (at least one), as
   (raw, scaled) pairs. *)
let measure ~traced ~seconds (inst : instance) =
  Calib.start ();
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k > 0 && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (k + 1) (inst.round ~traced k :: acc)
  in
  let rounds = go 0 [] in
  Calib.stop ();
  List.map (fun r -> (raw r, scaled r)) rounds

let ops_of rounds = List.concat_map (fun r -> r.ops) rounds

(* Throughput as the median over rounds, which keeps one slow round
   (a major GC, a neighbour's burst) from moving the figure. *)
let ops_per_s rounds =
  median
    (List.map (fun r -> float_of_int (List.length r.ops) /. (r.r1 -. r.r0)) rounds)

let failed ops = List.length (List.filter (fun o -> o.outcome <> Pass) ops)

let wrong ops =
  List.filter_map (function { outcome = Wrong m; _ } -> Some m | _ -> None) ops

let failures ops =
  List.filter_map (function { outcome = Failed m; _ } -> Some m | _ -> None) ops

(* Deterministic metrics are computed twice; any difference is a
   harness error, not noise. *)
let det_checked name (inst : instance) =
  let a = inst.det () and b = inst.det () in
  if a <> b then begin
    Printf.eprintf "perfbench: %s: deterministic metrics differ between two passes\n"
      name;
    exit 3
  end;
  a

let print_group title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6g %s\n" m.name m.value m.unit_)
    ms

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* A metric that is not a number (an empty sample) is a harness
   error. *)
let result_line ~correct ~attempted ~failed ms =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then begin
        Printf.eprintf "perfbench: metric %s is not a number\n" m.name;
        exit 3
      end)
    ms;
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
      m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map field ms))

let report_failures ops =
  let show label ms =
    match ms with
    | [] -> ()
    | m :: _ ->
        Printf.printf "%s: %d op(s), first: %s\n" label (List.length ms) m
  in
  show "failed" (failures ops);
  show "WRONG" (wrong ops)

let end_to_end name ~seed ~seconds =
  let setup = List.assoc name workloads in
  Calib.start ();
  let first = Unix.gettimeofday () in
  let rec reps k acc =
    if
      k >= setup_min_reps
      && (k >= setup_max_reps || Unix.gettimeofday () -. first >= setup_budget_s)
    then List.rev acc
    else
      let inst, t0, t1 = Common.timed (fun () -> setup ~seed) in
      (* keep the first instance only *)
      reps (k + 1) (((if k = 0 then Some inst else None), t0, t1) :: acc)
  in
  let timed = reps 0 [] in
  Calib.stop ();
  let inst = Option.get (List.hd (List.map (fun (i, _, _) -> i) timed)) in
  let timed = List.map (fun (_, t0, t1) -> (Calib.busy t0 t1, Calib.reference t0 t1)) timed in
  let setup_s = median (List.map snd timed) in
  inst.mem_run ();
  let peak_mem_mb = heap_mb () in
  let measured = measure ~traced:false ~seconds inst in
  let slowest, fastest = Calib.speed_range () in
  let rounds = List.map snd measured in
  let ops = ops_of rounds in
  let lats_ms = List.map (fun o -> 1e3 *. lat o) ops in
  let n = List.length ops and nfailed = failed ops in
  let det = det_checked name inst in
  let wall =
    [
      metric "ops_per_s" "1/s" (ops_per_s rounds);
      metric "p50_ms" "ms" (smoothed_median lats_ms);
      metric "p99_ms" "ms" (percentile 0.99 lats_ms);
      metric "setup_s" "s" setup_s;
      metric "peak_mem_mb" "MB" peak_mem_mb;
    ]
  in
  let det =
    metric "ok_share" "share" (float_of_int (n - nfailed) /. float_of_int n)
    :: List.filter (fun m -> m.name = "gen_makespan_ms") det
  in
  Printf.printf "ops %d in %d rounds, failed %d\n" n (List.length rounds) nfailed;
  Printf.printf
    "raw (uncalibrated): ops_per_s %.6g, set-up %.6g s; machine speed %.3g..%.3g of the reference\n"
    (ops_per_s (List.map fst measured))
    (median (List.map fst timed))
    slowest fastest;
  report_failures ops;
  print_group "wall-clock metrics:" wall;
  print_group "deterministic metrics:" det;
  result_line ~correct:(wrong ops = []) ~attempted:n ~failed:nfailed (wall @ det)

(* Alternate untraced and traced rounds for [seconds], so that drifts
   in machine speed fall on both sides of the tracing overhead.  The
   untraced rounds come back scaled, the traced ones as (raw, scaled)
   pairs. *)
let interleaved ~seconds (inst : instance) =
  Calib.start ();
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k >= 2 && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (k + 1) ((k mod 2 = 1, inst.round ~traced:(k mod 2 = 1) k) :: acc)
  in
  let rounds = go 0 [] in
  Calib.stop ();
  ( List.filter_map (fun (t, r) -> if t then None else Some (scaled r)) rounds,
    List.filter_map (fun (t, r) -> if t then Some (raw r, scaled r) else None) rounds )

(* A per-layer wall metric in reference time, given the median
   calibration factor of the rounds it came from. *)
let calibrated f (m : metric) =
  match m.unit_ with
  | "us" | "ms" -> { m with value = m.value *. f }
  | "MB/s" | "1/us" -> { m with value = m.value /. f }
  | _ -> m

let traced name ~seed ~seconds =
  let slice = seconds /. 5. in
  let runs =
    List.map
      (fun (w, setup) ->
        let inst = setup ~seed in
        if w = name then
          let plain, traced = interleaved ~seconds:(2. *. slice) inst in
          (w, inst, traced, plain)
        else (w, inst, measure ~traced:true ~seconds:slice inst, []))
      workloads
  in
  let _, _, own_traced, own_plain = List.find (fun (w, _, _, _) -> w = name) runs in
  let overhead =
    100. *. (1. -. (ops_per_s (List.map snd own_traced) /. ops_per_s own_plain))
  in
  let wall =
    metric "trace.overhead_pct" "%" overhead
    :: List.concat_map
         (fun (_, (inst : instance), r, _) ->
           let len r = r.r1 -. r.r0 in
           let f = median (List.map (fun (raw, scaled) -> len scaled /. len raw) r) in
           List.map (calibrated f) (inst.layers (List.map fst r)))
         runs
  in
  let det =
    List.concat_map
      (fun (w, inst, _, _) ->
        List.filter (fun m -> m.name <> "gen_makespan_ms") (det_checked w inst))
      runs
  in
  let ops =
    List.concat_map (fun (_, _, r, p) -> ops_of (List.map fst r) @ ops_of p) runs
  in
  let spans =
    List.concat_map (fun (_, _, r, _) -> List.concat_map (fun (r, _) -> r.spans) r) runs
  in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir name seed in
  Trace.write_chrome path spans;
  Printf.printf "spans %d written to %s\n" (List.length spans) path;
  let nfailed = failed ops in
  Printf.printf "ops %d, failed %d\n" (List.length ops) nfailed;
  report_failures ops;
  print_group "per-layer wall-clock metrics:" wall;
  print_group "per-layer deterministic metrics:" det;
  result_line ~correct:(wrong ops = []) ~attempted:(List.length ops) ~failed:nfailed
    (wall @ det)

let () =
  let name, seed, seconds, trace = args () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d pool=%d nproc=%d ocaml=%s\n"
    name seed seconds (Bool.to_int trace) pool_width
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  if trace then traced name ~seed ~seconds else end_to_end name ~seed ~seconds
