(* check_sweep: what [compc check --runs N -O] does, one generated
   program per op.

   Run k draws its seed from the workload seed by
   [Parallel.derive_seed], as [compc check] does, and generates one
   program of every [Check.Genprog] family.  Each op parses and
   typechecks the program, checks the mid-end ([Check.equiv p
   (Opt.run p)]), then applies every transform and checks each
   applicable rewrite with the oracle.  An op fails when a verdict is
   not acceptable or a transform's applicability contradicts the
   generator's truth table.  A round is [runs_per_round] runs on the
   pool ([pool_width] wide). *)

open Common

let runs_per_round = 4
let nblocks = 4

(* The deterministic metrics come from a fixed corpus: the first
   [det_runs] runs under root seed 0, whatever the workload seed, so a
   change in the code the transforms generate is not lost among
   changes of inputs. *)
let det_runs = 16

let opt_ok = function Check.Equal | Check.Both_failed _ -> true | _ -> false

let program ~seed k pat =
  let s = Parallel.derive_seed ~root:seed k in
  (s, Printf.sprintf "%s seed=%d" (Check.Genprog.pattern_name pat) s)

exception Stop of string

(* The per-op work.  Returns the rewrites with at least one site. *)
let run_op tr pat s =
  let span name f = Trace.with_span tr name f in
  let src = span "check.genprog" (fun () -> Check.Genprog.generate pat ~seed:s) in
  let prog =
    match span "minic.parse" (fun () -> Minic.Parser.program_of_string src) with
    | Ok p -> p
    | Error e -> raise (Stop ("generator bug: parse: " ^ e))
  in
  (match span "minic.typecheck" (fun () -> Minic.Typecheck.check_program prog) with
  | Ok _ -> ()
  | Error e -> raise (Stop ("generator bug: type: " ^ e)));
  let optimized = span "opt" (fun () -> Opt.run prog) in
  let v = span "check.equiv" (fun () -> Check.equiv ~fuel prog optimized) in
  if not (opt_ok v) then raise (Stop ("optimizer: " ^ Check.verdict_str v));
  List.filter_map
    (fun txf ->
      let name = Check.transform_name txf in
      let prog', sites =
        span "check.apply" (fun () -> Check.apply ~nblocks txf prog)
      in
      (match Check.expected_applicable pat txf with
      | Some b when b <> (sites > 0) ->
          raise
            (Stop
               (Printf.sprintf "%s: expected %sapplicable" name
                  (if b then "" else "NOT ")))
      | _ -> ());
      if sites = 0 then None
      else begin
        let v = span "check.equiv" (fun () -> Check.equiv ~fuel prog prog') in
        if not (Check.verdict_ok txf v) then
          raise (Stop (name ^ ": " ^ Check.verdict_str v));
        Some (prog', sites)
      end)
    Check.all_transforms

let op ~traced ~seed k pat =
  let s, what = program ~seed k pat in
  let tr = if traced then Some (Trace.new_op ()) else None in
  let res, t0, t1 =
    timed (fun () ->
        try Ok (Trace.with_span tr "check_sweep.op" (fun () -> run_op tr pat s)) with
        | Stop m -> Error (what ^ ": " ^ m)
        | e -> Error (what ^ ": " ^ Printexc.to_string e))
  in
  let outcome = match res with Ok _ -> Pass | Error m -> Failed m in
  (({ t0; t1; outcome; cls = "" }, tr), res)

let setup ~seed =
  (* warm-up on seeds no round uses *)
  List.iter
    (fun pat -> ignore (op ~traced:false ~seed:(seed lxor 0x5eed) 0 pat))
    Check.Genprog.all_patterns;
  let round ~traced r =
    let per_run, r0, r1 =
      timed (fun () ->
          Parallel.run ~jobs:pool_width runs_per_round (fun i ->
              let k = (r * runs_per_round) + i in
              List.map (fun pat -> fst (op ~traced ~seed k pat)) Check.Genprog.all_patterns))
    in
    of_ops ~r0 ~r1 (List.concat per_run)
  in
  (* Rewrite sites, and the replayed makespan of every applicable
     rewrite — the code the transforms generate, priced on the paper's
     machine. *)
  let det () =
    let rewrites =
      List.concat_map
        (fun k ->
          List.concat_map
            (fun pat ->
              match snd (op ~traced:false ~seed:0 k pat) with
              | Ok rs -> rs
              | Error _ -> [])
            Check.Genprog.all_patterns)
        (List.init det_runs Fun.id)
    in
    let makespans =
      List.filter_map
        (fun (p, _) ->
          match Minic.Compile_eval.run ~fuel p with
          | Ok o -> (
              try
                Some
                  (Runtime.Replay.makespan Machine.Config.paper_default
                     o.Minic.Interp.events)
              with _ -> None)
          | Error _ -> None)
        rewrites
    in
    [
      metric "gen_makespan_ms" "ms_sim" (1e3 *. geomean makespans);
      metric "check.sites" "count"
        (float_of_int (List.fold_left (fun a (_, s) -> a + s) 0 rewrites));
    ]
  in
  let layers rounds =
    let t = Trace.layers (List.concat_map (fun r -> r.spans) rounds) in
    let us name = metric (name ^ ".us") "us" (Trace.mean_us t name) in
    [ us "check.genprog"; us "check.apply"; us "check.equiv" ]
  in
  (* The heap is read after one 800-run sweep, as [compc check --runs
     800] runs it; by then it has levelled off.  (At a pool width
     above one, garbage promoted by a pool's domains outlives them on
     OCaml 5.1, and a domain pool per round grows the heap with the
     number of rounds run.) *)
  let mem_run () =
    ignore
      (Parallel.run ~jobs:pool_width 800 (fun k ->
           List.iter
             (fun pat -> ignore (op ~traced:false ~seed k pat))
             Check.Genprog.all_patterns))
  in
  { mem_run; round; det; layers }
