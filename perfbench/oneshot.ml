(* oneshot: what [compc run -O --replay FILE] does, one program per op.

   The inputs are the 12 registry kernels and the [examples/mc] files.
   Each op parses, typechecks, runs the mid-end and the COMP passes,
   pretty-prints, compiles to closures without the per-domain cache (a
   fresh process has none), executes, and replays the event trace on
   the paper's machine.  The printed output is compared with the
   reference interpreter's run of the unoptimized program, computed in
   set-up.  Ops run one at a time, as separate [compc] invocations
   would. *)

open Common

type program = { label : string; src : string; expected : (string, string) result }

(* What one op computed, for the deterministic metrics. *)
type result = {
  makespan : float;  (** replayed makespan, seconds *)
  fired : int;
  blocked : int;
  sites : int;
  pretty_bytes : int;
  work : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sources () =
  let kernels =
    List.map
      (fun (w : Workloads.Workload.t) -> ("kernel:" ^ w.name, w.source))
      Workloads.Registry.all
  in
  let dir = "examples/mc" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  kernels
  @ List.map (fun f -> ("examples/mc/" ^ f, read_file (Filename.concat dir f))) files

let reference src =
  match Minic.Parser.program_of_string src with
  | Error e -> Error ("parse: " ^ e)
  | Ok p -> (
      match Minic.Typecheck.check_program p with
      | Error e -> Error ("type: " ^ e)
      | Ok _ -> (
          match Minic.Interp.run ~fuel p with
          | Ok o -> Ok o.Minic.Interp.output
          | Error e -> Error e))

(* The mid-end's [opt.<pass>.fired] and [opt.<pass>.blocked.<reason>]
   counters, summed. *)
let opt_counts obs =
  List.fold_left
    (fun (fired, blocked) (k, v) ->
      match String.split_on_char '.' k with
      | [ "opt"; _; "fired" ] -> (fired + v, blocked)
      | "opt" :: _ :: "blocked" :: _ -> (fired, blocked + v)
      | _ -> (fired, blocked))
    (0, 0) (Obs.counters obs)

let applied_sites (a : Comp.applied) =
  a.offloads_inserted + a.shared_rewritten
  + List.length a.regularized
  + a.merged + a.streamed + a.vectorized + a.resident

(* One op.  Raises [Stop msg] where [compc] would exit non-zero. *)
exception Stop of string

let run_op tr p =
  let span name f = Trace.with_span tr name f in
  Trace.count tr "minic.parse.bytes" (float_of_int (String.length p.src));
  let prog =
    match span "minic.parse" (fun () -> Minic.Parser.program_of_string p.src) with
    | Ok prog -> prog
    | Error e -> raise (Stop ("parse: " ^ e))
  in
  (match span "minic.typecheck" (fun () -> Minic.Typecheck.check_program prog) with
  | Ok _ -> ()
  | Error e -> raise (Stop ("type: " ^ e)));
  let obs = Obs.create () in
  let prog = span "opt" (fun () -> Opt.run ~obs prog) in
  let prog, applied = span "comp" (fun () -> Comp.optimize ~obs prog) in
  let text = span "minic.pretty" (fun () -> Minic.Pretty.program_to_string prog) in
  let compiled = span "minic.closure" (fun () -> Minic.Compile_eval.compile prog) in
  let out, exec_s =
    time (fun () ->
        span "minic.exec" (fun () -> Minic.Compile_eval.exec ~fuel compiled))
  in
  let out =
    match out with
    | Ok o -> o
    | Error e -> raise (Stop ("runtime error: " ^ e))
  in
  Trace.count tr "minic.exec.work" (float_of_int out.Minic.Interp.work);
  Trace.count tr "minic.exec.ok_s" exec_s;
  let tasks =
    span "runtime.replay.lower" (fun () ->
        Runtime.Replay.tasks Machine.Config.paper_default out.Minic.Interp.events)
  in
  let r = span "machine.engine" (fun () -> Machine.Engine.schedule tasks) in
  let fired, blocked = opt_counts obs in
  ( out.Minic.Interp.output,
    {
      makespan = r.Machine.Engine.makespan;
      fired;
      blocked;
      sites = applied_sites applied;
      pretty_bytes = String.length text;
      work = out.Minic.Interp.work;
    } )

let no_result =
  { makespan = 0.; fired = 0; blocked = 0; sites = 0; pretty_bytes = 0; work = 0 }

(* Runs one program as one op: latency, outcome, and what it computed. *)
let op ~traced p =
  let tr = if traced then Some (Trace.new_op ()) else None in
  let res, t0, t1 =
    timed (fun () ->
        try Trace.with_span tr "oneshot.op" (fun () -> Ok (run_op tr p)) with
        | Stop msg -> Error msg
        | e -> Error (Printexc.to_string e))
  in
  let outcome, result =
    match (res, p.expected) with
    | Error msg, _ -> (Failed (p.label ^ ": " ^ msg), no_result)
    | Ok (out, r), Ok exp when String.equal out exp -> (Pass, r)
    | Ok (_, r), Ok _ -> (Wrong (p.label ^ ": output differs from the reference"), r)
    | Ok (_, r), Error e ->
        (Wrong (p.label ^ ": ran, but the reference run failed: " ^ e), r)
  in
  ({ t0; t1; outcome; cls = "" }, result, tr)

let setup ~seed =
  let programs =
    List.map (fun (label, src) -> { label; src; expected = reference src }) (sources ())
  in
  (* warm-up: one untimed pass lets lazy initialisation finish *)
  List.iter (fun p -> ignore (op ~traced:false p)) programs;
  (* every round in its own seeded order, so that no program always
     pays for the garbage of the same predecessor *)
  let round ~traced k =
    let order = shuffle ~seed:(Parallel.derive_seed ~root:seed k) programs in
    let ops, r0, r1 = timed (fun () -> List.map (fun p -> op ~traced p) order) in
    of_ops ~r0 ~r1 (List.map (fun (o, _, tr) -> (o, tr)) ops)
  in
  let det () =
    let rs = List.map (fun p -> let o, r, _ = op ~traced:false p in (o, r)) programs in
    let sum f = float_of_int (List.fold_left (fun a (_, r) -> a + f r) 0 rs) in
    [
      metric "gen_makespan_ms" "ms_sim"
        (1e3
        *. geomean
             (List.filter_map
                (fun (o, r) -> if o.outcome = Pass then Some r.makespan else None)
                rs));
      metric "opt.fired" "count" (sum (fun r -> r.fired));
      metric "opt.blocked" "count" (sum (fun r -> r.blocked));
      metric "comp.sites" "count" (sum (fun r -> r.sites));
      metric "minic.pretty.bytes" "bytes" (sum (fun r -> r.pretty_bytes));
      metric "minic.exec.work" "count" (sum (fun r -> r.work));
    ]
  in
  let layers rounds =
    let t = Trace.layers (List.concat_map (fun r -> r.spans) rounds) in
    let us name = metric (name ^ ".us") "us" (Trace.mean_us t name) in
    [
      us "minic.parse";
      metric "minic.parse.mb_per_s" "MB/s"
        (total rounds "minic.parse.bytes" /. 1e6
        /. (Trace.layer t "minic.parse").Trace.self_s);
      us "minic.typecheck";
      us "opt";
      us "comp";
      us "minic.pretty";
      us "minic.closure";
      us "minic.exec";
      (* work per microsecond over the executions that completed *)
      metric "minic.exec.work_per_us" "1/us"
        (total rounds "minic.exec.work" /. (1e6 *. total rounds "minic.exec.ok_s"));
      us "runtime.replay.lower";
      us "machine.engine";
    ]
  in
  { mem_run = rounds_of round 100; round; det; layers }
