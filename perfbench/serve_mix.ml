(* serve_mix: the service daemon under a seeded request mix, one request
   per op.

   A round is one session: a fresh [Serve.t] at the benchmark's pool
   width, fed [session_requests] lines of the seeded mix (run /
   optimize / simulate, a stats probe every 100 requests, and a
   sprinkle of malformed and over-budget lines) by one scripted client
   that hands in each line as soon as the previous [handle_line]
   returns, then [Serve.finish].  A request's latency runs from its
   hand-in to the return of the call that emitted its response, so it
   includes the wait for the batch to fill and the in-order hold.

   Saturating feed rather than a rate ladder: the daemon flushes only
   at 8 queued requests or at stats/EOF, so at a fixed arrival rate the
   latency would mostly measure batch-fill waiting.

   Every response is checked: one per request, in order; run outputs
   equal the reference interpreter's; malformed and over-budget lines
   get their hand-written error code; cache hits rise across the stats
   probes. *)

open Common

let session_requests = 1000

(* The mix's sources: six loop programs, as in the daemon's own
   throughput bench. *)
let src k =
  Printf.sprintf
    "int main(void) { int s = 0; for (i = 0; i < %d; i++) { s = s + i; } \
     print_int(s); return 0; }"
    (10 * (k + 1))

let nsources = 6
let benches = [| "blackscholes"; "kmeans"; "ferret" |]

type expect =
  | Run of int
  | Optimize
  | Simulate of string
  | Stats
  | Error_code of string

let cls = function
  | Run _ -> "run"
  | Optimize -> "optimize"
  | Simulate _ -> "simulate"
  | Stats -> "stats"
  | Error_code _ -> "error"

let classes = [ "run"; "optimize"; "simulate"; "stats"; "error" ]

let malformed =
  [|
    ("definitely not json", "bad_json");
    ({|{"cmd":"levitate"}|}, "unknown_cmd");
    ({|{"cmd":"run","src":"int main(void) { return }"}|}, "parse_error");
    ({|{"cmd":"run"}|}, "bad_request");
  |]

let over_budget =
  {|{"cmd":"run","src":"int main(void) { while (1) {} return 0; }","opts":{"fuel":50}}|}

let json_str s = Obs.Json.to_string (Obs.Json.String s)

(* The seeded mix of one session.  The templates and their shares are
   the daemon throughput bench's (per 20 requests: one malformed, one
   over budget, two optimize, two simulate, fourteen run; a stats probe
   every 100th), but drawn stratified: every block of 20 holds exactly
   those counts in a seeded order, and simulate cycles through the
   benchmarks.  Independent draws let a session's share of expensive
   requests wander, which moves its throughput and its median latency
   far more than anything in the daemon does. *)
let mix ~seed =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let block = Array.append [| `Malformed; `Over; `Opt; `Opt; `Sim; `Sim |] (Array.make 14 `Run) in
  let simulated = ref (rand (Array.length benches)) in
  let slot = ref (Array.length block) in
  let next_template () =
    if !slot = Array.length block then begin
      for i = Array.length block - 1 downto 1 do
        let j = rand (i + 1) in
        let t = block.(i) in
        block.(i) <- block.(j);
        block.(j) <- t
      done;
      slot := 0
    end;
    incr slot;
    block.(!slot - 1)
  in
  Array.init session_requests (fun k ->
      let template = next_template () in
      if k > 0 && k mod 100 = 0 then ({|{"cmd":"stats"}|}, Stats)
      else
        match template with
        | `Malformed ->
            let line, code = malformed.(rand (Array.length malformed)) in
            (line, Error_code code)
        | `Over -> (over_budget, Error_code "budget_exhausted")
        | `Opt ->
            ( Printf.sprintf {|{"cmd":"optimize","src":%s}|} (json_str (src (rand nsources))),
              Optimize )
        | `Sim ->
            let b = benches.(!simulated mod Array.length benches) in
            incr simulated;
            (Printf.sprintf {|{"cmd":"simulate","bench":"%s"}|} b, Simulate b)
        | `Run ->
            let k = rand nsources in
            (Printf.sprintf {|{"cmd":"run","src":%s}|} (json_str (src k)), Run k))

let session_seed ~seed r = Parallel.derive_seed ~root:seed r

type session = {
  reqs : (string * expect) array;
  responses : string array;
  handed : float array;
  emitted : float array;
  t_start : float;
  t_end : float;
  extra : int;  (** responses beyond one per request *)
  server : Serve.t;
  tracers : Trace.op option array;
}

let run_session ~traced reqs =
  let n = Array.length reqs in
  let server = Serve.create ~config:{ Serve.default_config with jobs = Some pool_width } () in
  let responses = Array.make n "" and handed = Array.make n 0. in
  let emitted = Array.make n Float.nan in
  let tracers = Array.init n (fun _ -> if traced then Some (Trace.new_op ()) else None) in
  let next = ref 0 in
  let take t1 lines =
    List.iter
      (fun line ->
        if !next < n then begin
          responses.(!next) <- line;
          emitted.(!next) <- t1
        end;
        incr next)
      lines
  in
  Calib.tick ();
  let t_start = Unix.gettimeofday () in
  Array.iteri
    (fun i (line, _) ->
      let t0 = Unix.gettimeofday () in
      handed.(i) <- t0;
      let out = Serve.handle_line server line in
      let t1 = Unix.gettimeofday () in
      Trace.add_span tracers.(i) (if out = [] then "serve.admit" else "serve.flush") ~t0 ~t1;
      take t1 out;
      (* every response is out: nothing is in flight *)
      if !next = i + 1 then Calib.tick ())
    reqs;
  let t0 = Unix.gettimeofday () in
  let out = Serve.finish server in
  let t1 = Unix.gettimeofday () in
  Trace.add_span tracers.(n - 1) "serve.flush" ~t0 ~t1;
  take t1 out;
  { reqs; responses; handed; emitted; t_start; t_end = t1; extra = !next - n; server; tracers }

let member path j =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some j) path

(* Verdict on response [i] of a session; [last_hits] threads the cache
   hits of the previous stats probe. *)
let verify ~refs ~last_hits s i =
  let _, expect = s.reqs.(i) in
  if Float.is_nan s.emitted.(i) then Wrong "no response"
  else if i = Array.length s.reqs - 1 && s.extra > 0 then
    Wrong (Printf.sprintf "%d responses beyond one per request" s.extra)
  else
    match Obs.Json.of_string s.responses.(i) with
    | Error e -> Wrong ("unparsable response: " ^ e)
    | Ok j -> (
        let field path = member path j in
        let ok = field [ "ok" ] = Some (Obs.Json.Bool true) in
        let err () =
          match field [ "error" ] with
          | Some (Obs.Json.String c) -> c
          | _ -> "?"
        in
        if field [ "id" ] <> Some (Obs.Json.Int (i + 1)) then
          Wrong "response out of order"
        else
          match expect with
          | Error_code code ->
              if ok then Wrong ("expected error " ^ code)
              else if err () <> code then
                Wrong (Printf.sprintf "expected error %s, got %s" code (err ()))
              else Pass
          | _ when not ok -> Failed (cls expect ^ ": error " ^ err ())
          | Run k -> (
              match (field [ "output" ], refs.(k)) with
              | Some (Obs.Json.String out), Ok exp when out = exp -> Pass
              | _ -> Wrong "run output differs from the reference")
          | Optimize -> (
              match field [ "program" ] with
              | Some (Obs.Json.String p) when p <> "" -> Pass
              | _ -> Wrong "optimize returned no program")
          | Simulate _ -> (
              match field [ "seconds" ] with
              | Some (Obs.Json.Float f) when f > 0. -> Pass
              | _ -> Wrong "simulate returned no time")
          | Stats -> (
              match field [ "cache"; "hits" ] with
              | Some (Obs.Json.Int h) when h > !last_hits ->
                  last_hits := h;
                  Pass
              | Some (Obs.Json.Int _) -> Wrong "cache hits did not rise"
              | _ -> Wrong "stats without cache hits"))

let ops_of_session ~refs s =
  let last_hits = ref (-1) in
  Array.to_list
    (Array.mapi
       (fun i (_, e) ->
         ( {
             t0 = s.handed.(i);
             t1 = s.emitted.(i);
             outcome = verify ~refs ~last_hits s i;
             cls = cls e;
           },
           s.tracers.(i) ))
       s.reqs)

(* The shape-scheduling layers, timed on the session's own simulate
   requests by calling them as [Comp.simulate] does. *)
let simulate_pairs ~traced s =
  Array.to_list s.reqs
  |> List.filter_map (function _, Simulate b -> Some b | _ -> None)
  |> List.map (fun b ->
         let tr = if traced then Some (Trace.new_op ()) else None in
         let span name f = Trace.with_span tr name f in
         let w = Workloads.Registry.find_exn b in
         let cfg = Machine.Config.paper_default in
         let tasks =
           span "serve.simulate_pair" (fun () ->
               let a = span "comp.analyze" (fun () -> Comp.analyze w) in
               let strategy, shape = Comp.plan_of_variant w a Comp.Mic_optimized in
               let tasks =
                 span "runtime.schedule_gen.tasks" (fun () ->
                     Runtime.Schedule_gen.tasks cfg shape strategy)
               in
               ignore (span "machine.engine" (fun () -> Machine.Engine.schedule tasks));
               tasks)
         in
         Trace.count tr "machine.engine.tasks" (float_of_int (List.length tasks));
         (List.length tasks, tr))

let reference k =
  match Minic.Parser.program_of_string (src k) with
  | Error e -> Error e
  | Ok p -> (
      match Minic.Interp.run ~fuel p with
      | Ok o -> Ok o.Minic.Interp.output
      | Error e -> Error e)

let setup ~seed =
  let refs = Array.init nsources reference in
  (* warm-up on a session no round uses *)
  ignore (run_session ~traced:false (mix ~seed:(seed lxor 0x5eed)));
  let round ~traced r =
    let s = run_session ~traced (mix ~seed:(session_seed ~seed r)) in
    let pairs = if traced then simulate_pairs ~traced s else [] in
    let rd = of_ops ~r0:s.t_start ~r1:s.t_end (ops_of_session ~refs s) in
    let probe = List.filter_map snd pairs in
    {
      rd with
      spans = rd.spans @ List.concat_map (fun (o : Trace.op) -> o.spans) probe;
      counts = rd.counts @ List.concat_map (fun (o : Trace.op) -> o.counts) probe;
    }
  in
  (* Deterministic metrics over the first session. *)
  let det () =
    let s = run_session ~traced:false (mix ~seed:(session_seed ~seed 0)) in
    let ops = List.map fst (ops_of_session ~refs s) in
    let obs = Serve.obs s.server in
    let hits = Serve.cache_hits s.server and misses = Serve.cache_misses s.server in
    let seconds = Hashtbl.create 4 in
    Array.iteri
      (fun i (_, e) ->
        match (e, Obs.Json.of_string s.responses.(i)) with
        | Simulate b, Ok j -> (
            match Obs.Json.member "seconds" j with
            | Some (Obs.Json.Float f) -> Hashtbl.replace seconds b f
            | _ -> ())
        | _ -> ())
      s.reqs;
    let per_class =
      List.concat_map
        (fun c ->
          let mine = List.filter (fun o -> o.cls = c) ops in
          [
            metric ("serve." ^ c ^ ".sent") "count" (float_of_int (List.length mine));
            metric ("serve." ^ c ^ ".failed") "count"
              (float_of_int (List.length (List.filter (fun o -> o.outcome <> Pass) mine)));
          ])
        classes
    in
    let batch_mean =
      match Obs.histogram obs "serve.batch" with Some h -> Obs.mean h | None -> 0.
    in
    [
      (* each distinct simulated benchmark once, so the figure does not
         depend on how often the mix drew it *)
      metric "gen_makespan_ms" "ms_sim"
        (1e3 *. geomean (Hashtbl.fold (fun _ f acc -> f :: acc) seconds []));
      metric "serve.cache_hits" "count" (float_of_int hits);
      metric "serve.cache_misses" "count" (float_of_int misses);
      metric "serve.cache_hit_ratio" "share"
        (float_of_int hits /. float_of_int (hits + misses));
      metric "serve.inline_batches" "count"
        (float_of_int (Obs.count obs "serve.inline_batches"));
      metric "serve.pooled_batches" "count"
        (float_of_int (Obs.count obs "serve.pooled_batches"));
      metric "serve.batch_mean" "requests" batch_mean;
      metric "machine.engine.tasks" "count"
        (float_of_int
           (List.fold_left (fun a (n, _) -> a + n) 0 (simulate_pairs ~traced:false s)));
    ]
    @ per_class
  in
  let layers rounds =
    let t = Trace.layers (List.concat_map (fun r -> r.spans) rounds) in
    let us name = metric (name ^ ".us") "us" (Trace.mean_us t name) in
    let ops = List.concat_map (fun r -> r.ops) rounds in
    let per_class =
      List.concat_map
        (fun c ->
          let lats =
            List.filter_map (fun o -> if o.cls = c then Some (1e3 *. lat o) else None) ops
          in
          [
            metric ("serve." ^ c ^ ".p50_ms") "ms" (smoothed_median lats);
            metric ("serve." ^ c ^ ".p99_ms") "ms" (percentile 0.99 lats);
          ])
        classes
    in
    [
      us "serve.admit";
      us "serve.flush";
      us "runtime.schedule_gen.tasks";
      metric "machine.engine.us_per_task" "us"
        (1e6 *. (Trace.layer t "machine.engine").Trace.self_s
        /. total rounds "machine.engine.tasks");
    ]
    @ per_class
  in
  { mem_run = rounds_of round 5; round; det; layers }
