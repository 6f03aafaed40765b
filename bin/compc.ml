(** compc — the COMP command-line driver.

    Subcommands:
    - [parse FILE]      parse + typecheck a MiniC file, print the AST-
                        round-tripped source
    - [optimize FILE]   run the full pass pipeline, print the rewritten
                        source and a pass report
    - [run FILE]        interpret a MiniC program on the dual-space
                        reference interpreter
    - [simulate NAME]   time a benchmark's variants on the machine model
                        and print the schedule
    - [report [EXP]]    print the paper's tables/figures
    - [list]            list benchmark models

    Top-level option:
    - [--profile FILE [-o STATS.json]]  interpret FILE, replay its
      offload trace on the machine model, and print the observability
      profile (per-phase breakdown, counters); [-o] also exports JSON *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Minic.Parser.program_of_string (read_file path) with
  | Ok prog -> (
      match Minic.Typecheck.check_program prog with
      | Ok _ -> Ok prog
      | Error e -> Error (Printf.sprintf "%s: type error: %s" path e))
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* Usage and input-parse failures in our own code: message on stderr,
   exit 2 — one convention across every subcommand.  (Cmdliner's own
   flag/argument errors exit 124; runtime failures exit 1; an
   unrecoverable device death exits 3.) *)
let exit_cli_error = 2

let die_usage msg =
  prerr_endline msg;
  exit exit_cli_error

let or_die = function Ok v -> v | Error msg -> die_usage msg

(* --- --faults SPEC (shared by --profile and check) --- *)

let fault_conv =
  let parse s =
    match Fault.parse s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg (Fault.error_message e))
  in
  let print fmt s = Format.pp_print_string fmt (Fault.to_string s) in
  Arg.conv ~docv:"SPEC" (parse, print)

let faults_arg =
  Arg.(
    value
    & opt fault_conv Fault.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject a deterministic fault plan: comma-separated $(b,seed=N), \
           $(b,xfer=P) (per-attempt transfer CRC-failure probability), \
           $(b,xfer@I) / $(b,xfer@I*K) (force K failures at transfer I), \
           $(b,kill@I) (transfer I fails every attempt), $(b,drop@TAG) / \
           $(b,delay@TAG:SECS) (COI signal faults), $(b,reset@T) (device \
           reset at time T), $(b,myo-stall=P:SECS), and recovery-policy \
           overrides $(b,retries=N), $(b,backoff=BASE:CEIL), $(b,timeout=T), \
           $(b,dead-after=N), $(b,fallback)/$(b,no-fallback), \
           $(b,slowdown=F), $(b,reset-cost=S).  A clause prefixed \
           $(b,devN:) (e.g. $(b,dev1:kill@0)) applies only to device N \
           of a multi-device run; unprefixed fault clauses apply to every \
           device, and policy/seed clauses are always global")

(* exit code for a device declared dead with no CPU fallback; with
   --devices N this means EVERY device died (migration exhausted) *)
let exit_device_dead = 3

(* --- --devices N / --streams K (the multi-device machine; shared by
   run and --profile) --- *)

let devices_arg =
  Arg.(
    value & opt int 1
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "Number of identical MIC cards, each with its own PCIe link. \
           With $(b,--faults), a device declared dead has its remaining \
           blocks migrated to the survivors; the host CPU runs the rest \
           only once every device is dead")

let streams_arg =
  Arg.(
    value & opt int 1
    & info [ "streams" ] ~docv:"K"
        ~doc:
          "Concurrent streams per device: cores are partitioned evenly \
           across the streams of a device, which contend for its one \
           PCIe link")

(* --- --machine SPEC (heterogeneous fleet; shared by run and tune) --- *)

let machine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine" ] ~docv:"SPEC"
        ~doc:
          "Describe the device fleet: comma-separated $(b,devices=N), \
           $(b,streams=K), and per-device heterogeneity refinements \
           $(b,devN:cores=F) / $(b,devN:bw=F), where F scales the named \
           card's compute throughput / PCIe link bandwidth relative to the \
           paper machine.  A bare $(b,cores=)/$(b,bw=) clause continues the \
           last $(b,devN:) prefix, so $(b,dev1:cores=0.5,bw=0.75) refines \
           device 1 twice.  Overrides $(b,--devices)/$(b,--streams)")

(* typed parse errors exit 2, the input-error convention *)
let parse_machine spec =
  match Machine.Fleet.parse spec with
  | Ok f -> f
  | Error e -> die_usage (Machine.Fleet.error_message e)

(* --- --eval ENGINE (shared by run, check and --profile) --- *)

let engine_conv =
  let parse s =
    match Minic.Interp.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown engine %S (expected reference or compiled)"
                s))
  in
  let print fmt e = Format.pp_print_string fmt (Minic.Interp.engine_name e) in
  Arg.conv ~docv:"ENGINE" (parse, print)

let eval_arg =
  Arg.(
    value
    & opt engine_conv Minic.Interp.Compiled
    & info [ "eval" ] ~docv:"ENGINE"
        ~doc:
          "Evaluator: $(b,compiled) (default: the closure-compiling fast \
           evaluator) or $(b,reference) (the tree-walking interpreter). The \
           two are observationally identical — same output, stats, event \
           trace, and fuel accounting — so this only trades speed for \
           directness when debugging the evaluators themselves")

(* --- -O / --passes / --report (the lib/opt mid-end; shared by
   optimize, run and check) --- *)

let midend_flag ~doc = Arg.(value & flag & info [ "O" ] ~doc)

let midend_passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"PASSES"
        ~doc:
          "Comma-separated subset of mid-end passes to run, in pipeline \
           order (implies $(b,-O)): fold, dce")

let midend_report_flag =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the mid-end's per-pass $(b,opt.<pass>.fired) / \
           $(b,opt.<pass>.blocked.<reason>) counter table to stderr \
           (implies $(b,-O))")

let midend_pass_list names =
  List.map
    (fun n ->
      match Opt.pass_of_name (String.trim n) with
      | Some p -> p
      | None ->
          die_usage
            (Printf.sprintf "unknown optimizer pass %s (known: %s)" n
               (String.concat ", " Opt.pass_names)))
    (String.split_on_char ',' names)

(* [Some passes] when any of -O / --passes / --report asks for the
   mid-end. *)
let midend ~o ~passes ~report =
  if o || passes <> None || report then
    Some
      (match passes with
      | None -> Opt.all_passes
      | Some s -> midend_pass_list s)
  else None

(* --- --residency (the inter-offload data-residency pass; shared by
   optimize, run and check) --- *)

let residency_flag ~doc = Arg.(value & flag & info [ "residency" ] ~doc)

(* --- parse --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let parse_cmd =
  let run file =
    let prog = or_die (load file) in
    print_string (Minic.Pretty.program_to_string prog)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and typecheck a MiniC file")
    Term.(const run $ file_arg)

(* --- optimize --- *)

let optimize_cmd =
  let nblocks =
    Arg.(value & opt int 10 & info [ "nblocks"; "n" ] ~doc:"Streaming block count")
  in
  let full_buffers =
    Arg.(
      value & flag
      & info [ "full-buffers" ]
          ~doc:"Use full-size device buffers instead of double buffering")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"PASSES"
          ~doc:
            "Comma-separated subset of passes to run (insert-offload, \
             shared-memory, regularization, merge-offloads, \
             data-streaming, vectorization)")
  in
  let o =
    midend_flag
      ~doc:
        "Run the classic optimizer mid-end (fold, dce) before the \
         source-to-source pipeline"
  in
  let residency =
    residency_flag
      ~doc:
        "Run the inter-offload data-residency pass after the pipeline: \
         elide in()/inout() transfers whose sections are already \
         device-resident and hoist loop-invariant transfers.  With \
         $(b,--report), print the residency/clause counter table (and \
         $(b,--report) then no longer implies $(b,-O) on its own)"
  in
  let auto =
    Arg.(
      value & flag
      & info [ "auto" ]
          ~doc:
            "Auto-tune the streaming block count before optimizing: \
             simulate the pipeline's lowering at each candidate count on \
             the paper machine and use the makespan-optimal one \
             (overrides $(b,--nblocks); the chosen point is reported on \
             stderr)")
  in
  let run file nblocks full only o mpasses report residency auto =
    let prog = or_die (load file) in
    let memory =
      if full then Transforms.Streaming.Full
      else Transforms.Streaming.Double_buffered
    in
    let nblocks =
      if not auto then nblocks
      else begin
        let pre =
          Tune.prepare_program ~max_devices:1 ~max_streams:1 ~name:file prog
        in
        let rep = Tune.run pre in
        Printf.eprintf
          "// auto-tuned: nblocks=%d (makespan %.6f s vs %.6f s at \
           nblocks=%d; explored %d, pruned %d)\n"
          rep.Tune.r_best.Tune.pt_config.Tune.nblocks
          rep.Tune.r_best.Tune.pt_makespan rep.Tune.r_default.Tune.pt_makespan
          Comp.default_nblocks rep.Tune.r_explored rep.Tune.r_pruned;
        rep.Tune.r_best.Tune.pt_config.Tune.nblocks
      end
    in
    let passes =
      match only with
      | None -> Comp.all_passes
      | Some names ->
          List.map
            (fun n ->
              match Comp.pass_of_name (String.trim n) with
              | Some p -> p
              | None ->
                  die_usage
                    (Printf.sprintf "unknown pass %s (known: %s)" n
                       (String.concat ", "
                          (List.map Comp.pass_name Comp.all_passes))))
            (String.split_on_char ',' names)
    in
    let obs = if report then Some (Obs.create ()) else None in
    let opt = midend ~o ~passes:mpasses ~report:(report && not residency) in
    let prog', applied =
      Comp.optimize ?opt ?obs ~residency ~passes ~nblocks ~memory prog
    in
    (if report then
       match obs with
       | Some s when opt <> None -> Printf.eprintf "%s\n" (Opt.report s)
       | _ -> ());
    (if report && residency then
       match obs with
       | Some s -> Printf.eprintf "%s\n" (Residency.report s)
       | None -> ());
    Format.eprintf "// %a@." Comp.pp_applied applied;
    print_string (Minic.Pretty.program_to_string prog')
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the COMP source-to-source optimizations to a MiniC file")
    Term.(
      const run $ file_arg $ nblocks $ full_buffers $ only $ o
      $ midend_passes_arg $ midend_report_flag $ residency $ auto)

(* --- run --- *)

let run_cmd =
  let fuel =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc:"Statement budget")
  in
  let optimize_first =
    midend_flag
      ~doc:
        "Optimize before running — the classic mid-end, then the COMP \
         source-to-source pipeline (checks the rewrites too)"
  in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "After running, replay the offload event trace on the machine \
             model and print the reconstructed schedule (execution-driven \
             timing)")
  in
  let residency =
    residency_flag
      ~doc:
        "Apply the inter-offload data-residency pass before running (the \
         elided transfers show up in the stats line); with \
         $(b,--report), print its counter table"
  in
  let auto =
    Arg.(
      value & flag
      & info [ "auto" ]
          ~doc:
            "Auto-tune the offload configuration before running: search \
             (devices, streams, nblocks) up to the caps given by \
             $(b,--devices)/$(b,--streams) (or $(b,--machine)), optimize \
             at the winning block count, and run on the winning grid.  \
             The tuned point is reported on stderr")
  in
  let run file fuel o mpasses report replay engine residency faults devices
      streams machine auto =
    let prog = or_die (load file) in
    let fleet = Option.map parse_machine machine in
    let devices, streams =
      match fleet with
      | Some f -> (f.Machine.Fleet.f_devices, f.Machine.Fleet.f_streams)
      | None -> (devices, streams)
    in
    let scales =
      match fleet with Some f -> f.Machine.Fleet.f_scales | None -> []
    in
    let obs = if report then Some (Obs.create ()) else None in
    let mid = midend ~o ~passes:mpasses ~report:(report && not residency) in
    let prog =
      match mid with
      | Some mid -> fst (Comp.optimize ?obs ~opt:mid prog)
      | None -> prog
    in
    (if mid <> None then
       Option.iter (fun s -> Printf.eprintf "%s\n" (Opt.report s)) obs);
    let prog =
      if residency then fst (Residency.transform ?obs prog) else prog
    in
    (if residency then
       Option.iter (fun s -> Printf.eprintf "%s\n" (Residency.report s)) obs);
    (* --auto: tune on the program as it stands (post mid-end and
       residency), then run the pipeline-optimized program on the
       tuned grid *)
    let prog, devices, streams =
      if not auto then (prog, devices, streams)
      else begin
        let base =
          Machine.Config.with_scales
            (Machine.Config.with_faults Machine.Config.paper_default faults)
            scales
        in
        let pre =
          Tune.prepare_program ~base ~max_devices:devices
            ~max_streams:streams ~name:file prog
        in
        let rep = Tune.run pre in
        let c = rep.Tune.r_best.Tune.pt_config in
        Printf.eprintf
          "// auto-tuned: %s (makespan %.6f s vs %.6f s default, %.2fx; \
           explored %d, pruned %d)\n"
          (Tune.config_to_string c) rep.Tune.r_best.Tune.pt_makespan
          rep.Tune.r_default.Tune.pt_makespan (Tune.speedup rep)
          rep.Tune.r_explored rep.Tune.r_pruned;
        ( fst (Comp.optimize ~nblocks:c.Tune.nblocks prog),
          c.Tune.devices,
          c.Tune.streams )
      end
    in
    match Minic.Compile_eval.run ~engine ~fuel prog with
    | Ok o ->
        print_string o.Minic.Interp.output;
        Printf.eprintf
          "// offloads=%d transfers=%d cells h2d=%d d2h=%d mic-alloc=%d\n"
          o.stats.Minic.Interp.offloads o.stats.Minic.Interp.transfers
          o.stats.Minic.Interp.cells_h2d o.stats.Minic.Interp.cells_d2h
          o.stats.Minic.Interp.mic_alloc_cells;
        let multi =
          devices > 1 || streams > 1
          || not (Fault.is_none faults)
          || scales <> []
        in
        if multi then begin
          (* The multi-device path: cut the trace into blocks and place
             them over every (device, stream) unit; device deaths
             migrate the remainder to the survivors.  The summary and
             the fault.* counters go to stderr so program output stays
             byte-identical. *)
          let cfg =
            Machine.Config.with_scales
              (Machine.Config.with_devices
                 (Machine.Config.with_faults Machine.Config.paper_default
                    faults)
                 ~devices ~streams)
              scales
          in
          let mobs = Obs.create () in
          match
            Runtime.Migrate.schedule ~obs:mobs cfg o.Minic.Interp.events
          with
          | exception Fault.Device_dead { dev; at; failures } ->
              Printf.eprintf
                "fault: device %d declared dead at %.6f s after %d failed \
                 attempts; every device is dead and the policy has no CPU \
                 fallback\n"
                dev at failures;
              exit exit_device_dead
          | m ->
              List.iter
                (fun (d, at) ->
                  Printf.eprintf "// device %d declared dead at %.6f s\n" d at)
                m.Runtime.Migrate.m_dead;
              if m.Runtime.Migrate.m_fellback then
                Printf.eprintf
                  "// every device dead: remaining blocks ran on the host \
                   CPU\n";
              Printf.eprintf
                "// migrated schedule: %d block%s on %d device%s x %d \
                 stream%s, makespan %.6f s\n"
                (List.length m.Runtime.Migrate.m_placements)
                (if List.length m.Runtime.Migrate.m_placements = 1 then ""
                 else "s")
                devices
                (if devices = 1 then "" else "s")
                streams
                (if streams = 1 then "" else "s")
                m.Runtime.Migrate.m_result.Machine.Engine.makespan;
              Printf.eprintf
                "// fault.migrated_blocks=%d fault.dead_devices=%d \
                 fault.resident_repaid=%d\n"
                (Obs.count mobs "fault.migrated_blocks")
                (Obs.count mobs "fault.dead_devices")
                (Obs.count mobs "fault.resident_repaid");
              if replay then begin
                let r = m.Runtime.Migrate.m_result in
                prerr_string (Machine.Trace.gantt ~width:64 r);
                Format.eprintf "%a" Machine.Trace.pp_summary r
              end
        end
        else if replay then begin
          let r =
            Runtime.Replay.schedule Machine.Config.paper_default
              o.Minic.Interp.events
          in
          Printf.eprintf "// replayed schedule (1 cell = %.0f KB):\n"
            (Runtime.Replay.default_params.Runtime.Replay.bytes_per_cell
           /. 1024.);
          prerr_string (Machine.Trace.gantt ~width:64 r);
          Format.eprintf "%a" Machine.Trace.pp_summary r
        end
    | Error e ->
        Printf.eprintf "runtime error: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a MiniC program (dual-space reference)")
    Term.(
      const run $ file_arg $ fuel $ optimize_first $ midend_passes_arg
      $ midend_report_flag $ replay $ eval_arg $ residency $ faults_arg
      $ devices_arg $ streams_arg $ machine_arg $ auto)

(* --- simulate --- *)

let bench_arg =
  Arg.(
    required
    & pos 0 (some (Arg.enum (List.map (fun n -> (n, n)) Workloads.Registry.names))) None
    & info [] ~docv:"BENCHMARK")

let simulate_cmd =
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print a text Gantt chart")
  in
  let run name gantt =
    let w = Workloads.Registry.find_exn name in
    let variants =
      [
        ("cpu", Comp.Cpu_parallel);
        ("mic-naive", Comp.Mic_naive);
        ("mic-optimized", Comp.Mic_optimized);
      ]
    in
    List.iter
      (fun (label, v) ->
        let t = Comp.simulate w v in
        Printf.printf "%-14s %10.4f s\n" label t;
        if gantt && v <> Comp.Cpu_parallel then begin
          let s = Comp.schedule w v in
          print_string (Machine.Trace.gantt s);
          Format.printf "%a" Machine.Trace.pp_summary s
        end)
      variants
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Time a benchmark's variants on the simulated host + MIC")
    Term.(const run $ bench_arg $ gantt)

(* --- report --- *)

let report_cmd =
  let exp =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:"One of fig1 fig4 table2 fig10 fig11 fig12 fig13 fig14 fig15 \
                table3; omit for all")
  in
  let run exp =
    match exp with
    | None -> Experiments.All.print_all ()
    | Some name -> (
        match List.assoc_opt name Experiments.All.by_name with
        | Some f -> f ()
        | None ->
            die_usage
              (Printf.sprintf "unknown experiment %s (known: %s)" name
                 (String.concat " " Experiments.All.names)))
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ exp)

(* --- analyze --- *)

let analyze_cmd =
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"NAME"
          ~doc:"Analyze a bundled benchmark model instead of a file")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run bench file =
    let prog =
      match (bench, file) with
      | Some name, _ -> (
          (* find, not find_exn: an unknown name must be a usage error,
             not an escaping Not_found *)
          match Workloads.Registry.find name with
          | Some w -> Workloads.Workload.program w
          | None ->
              die_usage
                (Printf.sprintf "unknown benchmark %s (known: %s)" name
                   (String.concat " " Workloads.Registry.names)))
      | None, Some f -> or_die (load f)
      | None, None -> die_usage "analyze: need FILE or --bench NAME"
    in
    print_string (Comp.explain prog)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Explain, per region, which optimizations apply and why")
    Term.(const run $ bench $ file)

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let a = Comp.analyze w in
        let opts =
          List.filter_map Fun.id
            [
              (if a.Comp.streaming then Some "streaming" else None);
              (if a.Comp.merging then Some "merging" else None);
              (if a.Comp.regularization <> [] then Some "regularization"
               else None);
              (if a.Comp.shared_memory then Some "shared-memory" else None);
            ]
        in
        Printf.printf "%-14s %-8s %-28s [%s]\n" w.name w.suite w.input_desc
          (String.concat ", " opts))
      Workloads.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmark models and applicable optimizations")
    Term.(const run $ const ())

(* --- check --- *)

(* One (pattern, transform) outcome within a generated-program run.
   Generation, detection and differential execution happen inside
   parallel tasks; printing, statistics, minimization and corpus
   recording replay on the calling domain in submission order, so the
   report is byte-identical at any --jobs width. *)
type gen_outcome = {
  g_txf : Check.transform;
  g_what : string;  (** "generated pattern=... seed=..." provenance *)
  g_prog : Minic.Ast.program;  (** original, for on-demand minimization *)
  g_app_mismatch : bool option;
      (** [Some expected] when detection disagreed with the pattern *)
  g_sites : int;
  g_verdict : Check.verdict option;  (** [None] when not applicable *)
}

let check_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let transform =
    let tconv =
      Arg.enum
        (("all", None)
        :: List.map
             (fun t -> (Check.transform_name t, Some t))
             Check.all_transforms)
    in
    Arg.(
      value & opt tconv None
      & info [ "transform" ] ~docv:"T"
          ~doc:
            "Transform(s) to validate: all, streaming, regularize, merge, \
             soa, or shared")
  in
  let runs =
    Arg.(
      value & opt int 0
      & info [ "runs" ] ~docv:"N"
          ~doc:
            "Also check $(docv) generated program instances per pattern \
             family (deterministic from --seed)")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domain-pool width for the --runs sweep (default: \
             $(b,COMP_JOBS) if set, else the recommended domain count). \
             Output and exit code are identical at any width")
  in
  let nblocks =
    Arg.(value & opt int 4 & info [ "nblocks" ] ~doc:"Streaming block count")
  in
  let fuel =
    Arg.(
      value & opt int 10_000_000
      & info [ "fuel" ] ~doc:"Interpreter statement budget per run")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Deliberately corrupt every rewrite (off-by-one in the first \
             offload assignment); the harness must catch it — exit 1 means \
             caught, exit 2 means it slipped through")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"DIR"
          ~doc:
            "Append minimized diverging programs to $(docv) (e.g. \
             test/corpus/regressions) for deterministic replay")
  in
  let o =
    midend_flag
      ~doc:
        "Also validate the classic optimizer mid-end on every checked \
         program: the optimized program must behave identically to the \
         original under the same differential oracle.  Silent on success, \
         so the report is byte-identical with and without $(b,-O)"
  in
  let residency =
    residency_flag
      ~doc:
        "Additionally hold the residency rewrite to its stats contract \
         against the non-resident oracle: same outputs, same d2h cells \
         and offload count, transfer events at most oracle + hoists, \
         h2d no worse without hoists"
  in
  let run file transform runs seed nblocks fuel inject record faults jobs
      engine o mpasses residency devices streams =
    let txfs =
      match transform with None -> Check.all_transforms | Some t -> [ t ]
    in
    let failures = ref 0 in
    let applicable_total = ref 0 in
    let dumped : (Check.transform, unit) Hashtbl.t = Hashtbl.create 8 in
    let opt_passes = midend ~o ~passes:mpasses ~report:false in
    (* The mid-end oracle: the optimizer may not change behaviour, so
       only [Equal] (and identical pre-existing failure) is acceptable —
       in particular an optimized program must not "fix" a program that
       trapped.  Verdict computation is pure and runs inside the
       parallel tasks; printing replays on the calling domain. *)
    let opt_verdict prog =
      Option.map
        (fun mid -> Check.equiv ~engine ~fuel prog (Opt.run ~passes:mid prog))
        opt_passes
    in
    let opt_ok = function
      | Check.Equal | Check.Both_failed _ -> true
      | _ -> false
    in
    let handle_opt ~what v =
      match v with
      | Some v when not (opt_ok v) ->
          incr failures;
          Printf.printf "  %-11s FAILED on %s: %s\n" "optimizer" what
            (Check.verdict_str v)
      | _ -> ()
    in
    (* The residency stats contract (only with --residency): printed
       after the transform listing, silent when nothing was elided. *)
    let handle_residency ~what (r : Check.residency_report option) =
      match r with
      | None -> ()
      | Some r when r.Check.rr_sites = 0 -> ()
      | Some r ->
          if Check.residency_ok r then
            Printf.printf
              "  %-11s contract ok: h2d %d->%d cells, d2h %d cells, %d \
               hoist%s\n"
              "residency" r.Check.rr_orig_h2d r.Check.rr_res_h2d
              r.Check.rr_res_d2h r.Check.rr_hoists
              (if r.Check.rr_hoists = 1 then "" else "s")
          else begin
            incr failures;
            Printf.printf "  %-11s contract FAILED on %s: %s\n" "residency"
              what
              (match r.Check.rr_contract with
              | Some m -> m
              | None -> Check.verdict_str r.Check.rr_verdict)
          end
    in
    let residency_report prog =
      if residency then Some (Check.check_residency ~engine ~fuel prog)
      else None
    in
    (* The migration oracle (only with --devices/--streams): the
       multi-device recovered run must compute the same thing as the
       clean single-device one, conserve blocks, and finish. *)
    let migrated_report prog =
      if devices > 1 || streams > 1 then
        Some
          (Check.check_migrated ~engine ~fuel ~devices ~streams ~spec:faults
             prog)
      else None
    in
    let migrated_fail_reason r =
      if r.Check.mg_died then
        "every device died and the policy has no CPU fallback"
      else
        match r.Check.mg_conservation with
        | Some m -> m
        | None -> Check.verdict_str r.Check.mg_verdict
    in
    let handle_migrated ~what = function
      | None -> ()
      | Some r ->
          if Check.migrated_ok r then
            Printf.printf
              "  %-11s conserved: %d block%s, %d migrated, %d dead (clean \
               %.6f s -> recovered %.6f s%s)\n"
              "migrate" r.Check.mg_blocks
              (if r.Check.mg_blocks = 1 then "" else "s")
              r.Check.mg_migrated
              (List.length r.Check.mg_dead)
              r.Check.mg_clean_s r.Check.mg_faulted_s
              (if r.Check.mg_fellback then ", host fallback" else "")
          else begin
            incr failures;
            Printf.printf "  %-11s FAILED on %s: %s\n" "migrate" what
              (migrated_fail_reason r)
          end
    in
    (* Sweep variant: silent on success, one summary line at the end. *)
    let mig_checked = ref 0
    and mig_migrated_total = ref 0
    and mig_deaths_total = ref 0
    and mig_failures = ref 0 in
    let handle_migrated_sweep ~what = function
      | None -> ()
      | Some r ->
          incr mig_checked;
          mig_migrated_total := !mig_migrated_total + r.Check.mg_migrated;
          mig_deaths_total := !mig_deaths_total + List.length r.Check.mg_dead;
          if not (Check.migrated_ok r) then begin
            incr failures;
            incr mig_failures;
            Printf.printf "  %-11s FAILED on %s: %s\n" "migrate" what
              (migrated_fail_reason r)
          end
    in
    (* Report one transform's verdict on one program; on the first
       divergence per transform, shrink, dump, and optionally record. *)
    let handle ~what ~prog (r : Check.report) =
      let name = Check.transform_name r.transform in
      if r.sites = 0 then Printf.printf "  %-11s not applicable\n" name
      else begin
        incr applicable_total;
        if Check.verdict_ok r.transform r.verdict then
          Printf.printf "  %-11s %s (%d site%s)\n" name
            (match r.verdict with
            | Check.Orig_failed _ -> "enabled (original fails without it)"
            | Check.Both_failed _ -> "both fail (pre-existing)"
            | _ -> "equivalent")
            r.sites
            (if r.sites = 1 then "" else "s")
        else begin
          incr failures;
          Printf.printf "  %-11s FAILED: %s\n" name
            (Check.verdict_str r.verdict);
          match r.verdict with
          | Check.Diverged _ when not (Hashtbl.mem dumped r.transform) ->
              Hashtbl.add dumped r.transform ();
              let minimized =
                Check.minimize_diverging ~engine ~fuel ~nblocks ~inject
                  r.transform prog
              in
              Printf.printf "minimized counterexample (%s, %s):\n%s" name what
                (Minic.Pretty.program_to_string minimized);
              Option.iter
                (fun dir ->
                  let note =
                    Printf.sprintf
                      "minimized counterexample: transform=%s source=%s%s"
                      name what
                      (if inject then " (injected bug)" else "")
                  in
                  let path = Check.Corpus.record ~dir ~note minimized in
                  Printf.printf "recorded: %s\n" path)
                record
          | _ -> ()
        end
      end
    in
    (match file with
    | Some f ->
        let prog = or_die (load f) in
        Printf.printf "%s:\n" f;
        handle_opt ~what:f (opt_verdict prog);
        if Fault.is_none faults then begin
          List.iter
            (handle ~what:f ~prog)
            (Check.check_program ~engine ~fuel ~nblocks ~inject
               ~transforms:txfs prog);
          handle_residency ~what:f (residency_report prog);
          handle_migrated ~what:f (migrated_report prog)
        end
        else begin
          (* differential oracle under an injected fault plan: the
             rewrite must stay equivalent AND the faulted replay must
             recover (retries / timeouts / CPU fallback) *)
          Printf.printf "  fault plan: %s\n" (Fault.to_string faults);
          List.iter
            (fun (r : Check.faulted_report) ->
              let name = Check.transform_name r.Check.f_transform in
              if r.Check.f_sites = 0 then
                Printf.printf "  %-11s not applicable\n" name
              else begin
                incr applicable_total;
                if Check.faulted_ok r then
                  Printf.printf
                    "  %-11s equivalent; recovered%s (clean %.6f s -> \
                     faulted %.6f s)\n"
                    name
                    (if r.Check.f_fellback then " on the CPU" else "")
                    r.Check.f_clean_s r.Check.f_faulted_s
                else begin
                  incr failures;
                  Printf.printf "  %-11s FAILED under faults: %s\n" name
                    (if r.Check.f_died then
                       "device died and the policy has no CPU fallback"
                     else Check.verdict_str r.Check.f_verdict)
                end
              end)
            (Check.check_faulted ~engine ~fuel ~nblocks ~transforms:txfs
               ~spec:faults prog);
          handle_residency ~what:f (residency_report prog);
          handle_migrated ~what:f (migrated_report prog)
        end
    | None -> ());
    if runs > 0 then begin
      (* per-transform (checked, applicable, divergences) counters *)
      let stats = Hashtbl.create 8 in
      let bump txf dc da dd =
        let c, a, d =
          Option.value (Hashtbl.find_opt stats txf) ~default:(0, 0, 0)
        in
        Hashtbl.replace stats txf (c + dc, a + da, d + dd)
      in
      (* All detection and differential execution for run [k]: pure
         work, safe on any domain.  The run's seed derives from the
         root seed by splitmix, so the pool width never changes which
         programs are tested. *)
      let run_tasks k =
        let s = Parallel.derive_seed ~root:seed k in
        List.map
          (fun pat ->
            let src = Check.Genprog.generate pat ~seed:s in
            let what =
              Printf.sprintf "generated pattern=%s seed=%d"
                (Check.Genprog.pattern_name pat)
                s
            in
            let prog =
              match Minic.Parser.program_of_string src with
              | Error e ->
                  failwith
                    (Printf.sprintf "generator bug (%s): parse: %s\n%s" what e
                       src)
              | Ok p -> (
                  match Minic.Typecheck.check_program p with
                  | Error e ->
                      failwith
                        (Printf.sprintf "generator bug (%s): type: %s\n%s" what
                           e src)
                  | Ok _ -> p)
            in
            let opt_v = opt_verdict prog in
            let res_v = residency_report prog in
            let mig_v = migrated_report prog in
            let outs =
              List.map
                (fun txf ->
                let prog', sites = Check.apply ~nblocks txf prog in
                let g_app_mismatch =
                  match Check.expected_applicable pat txf with
                  | Some b when b <> (sites > 0) -> Some b
                  | _ -> None
                in
                let g_verdict =
                  if sites > 0 then begin
                    let prog' =
                      if inject then Check.Inject.corrupt prog' else prog'
                    in
                    Some (Check.equiv ~engine ~fuel prog prog')
                  end
                  else None
                in
                {
                  g_txf = txf;
                  g_what = what;
                  g_prog = prog;
                  g_app_mismatch;
                  g_sites = sites;
                  g_verdict;
                })
                txfs
            in
            (what, opt_v, res_v, mig_v, outs))
          Check.Genprog.all_patterns
      in
      let outcomes =
        try Parallel.run ?jobs runs run_tasks
        with Failure msg ->
          prerr_endline msg;
          exit 1
      in
      (* Replay in submission order: same prints, same counters, same
         first-divergence-per-transform minimization as sequentially. *)
      List.iter
        (List.iter (fun (what, opt_v, res_v, mig_v, outs) ->
             handle_opt ~what opt_v;
             handle_residency ~what res_v;
             handle_migrated_sweep ~what mig_v;
             List.iter (fun o ->
             (match o.g_app_mismatch with
             | Some b ->
                 incr failures;
                 bump o.g_txf 1 0 1;
                 Printf.printf "  %-11s FAILED: expected %sapplicable on %s\n"
                   (Check.transform_name o.g_txf)
                   (if b then "" else "NOT ")
                   o.g_what
             | None -> bump o.g_txf 1 0 0);
             if o.g_sites > 0 then begin
               incr applicable_total;
               bump o.g_txf 0 1 0;
               match o.g_verdict with
               | Some verdict when not (Check.verdict_ok o.g_txf verdict) ->
                   begin
                     incr failures;
                     bump o.g_txf 0 0 1;
                     Printf.printf "  %-11s FAILED on %s: %s\n"
                       (Check.transform_name o.g_txf)
                       o.g_what
                       (Check.verdict_str verdict);
                     match verdict with
                     | Check.Diverged _ when not (Hashtbl.mem dumped o.g_txf)
                       ->
                         Hashtbl.add dumped o.g_txf ();
                         let minimized =
                           Check.minimize_diverging ~engine ~fuel ~nblocks
                             ~inject o.g_txf o.g_prog
                         in
                         Printf.printf
                           "minimized counterexample (%s, %s):\n%s"
                           (Check.transform_name o.g_txf)
                           o.g_what
                           (Minic.Pretty.program_to_string minimized);
                         Option.iter
                           (fun dir ->
                             let note =
                               Printf.sprintf
                                 "minimized counterexample: transform=%s %s%s"
                                 (Check.transform_name o.g_txf)
                                 o.g_what
                                 (if inject then " (injected bug)" else "")
                             in
                             let path =
                               Check.Corpus.record ~dir ~note minimized
                             in
                             Printf.printf "recorded: %s\n" path)
                           record
                     | _ -> ()
                   end
               | _ -> ()
             end)
               outs))
        outcomes;
      List.iter
        (fun txf ->
          match Hashtbl.find_opt stats txf with
          | Some (checked, applicable, divergences) ->
              Printf.printf
                "%-11s checked %d instances, %d applicable, %d failures\n"
                (Check.transform_name txf)
                checked applicable divergences
          | None -> ())
        txfs;
      if devices > 1 || streams > 1 then
        Printf.printf
          "%-11s checked %d instances, %d blocks migrated, %d device \
           deaths, %d failures\n"
          "migrate" !mig_checked !mig_migrated_total !mig_deaths_total
          !mig_failures
    end;
    if file = None && runs = 0 then
      die_usage "check: need FILE and/or --runs N";
    if inject then
      if !failures > 0 then begin
        Printf.printf "injected bug caught (%d finding%s)\n" !failures
          (if !failures = 1 then "" else "s");
        exit 1
      end
      else if !applicable_total > 0 then begin
        prerr_endline "injected bug was NOT caught by the oracle";
        exit 2
      end
      else begin
        prerr_endline "inject-bug: no transform was applicable";
        exit 2
      end
    else if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differentially validate the COMP transforms: run original and \
          transformed programs on the reference interpreter and compare \
          output, return value, and final global state")
    Term.(
      const run $ file $ transform $ runs $ seed $ nblocks $ fuel $ inject
      $ record $ faults_arg $ jobs $ eval_arg $ o $ midend_passes_arg
      $ residency $ devices_arg $ streams_arg)

(* --- tune --- *)

let tune_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Tune every workload in the registry")
  in
  let devices =
    Arg.(
      value
      & opt (some int) None
      & info [ "devices" ] ~docv:"N"
          ~doc:
            "Largest device count to search (default 2); mutually \
             exclusive with $(b,--machine)")
  in
  let streams =
    Arg.(
      value
      & opt (some int) None
      & info [ "streams" ] ~docv:"K"
          ~doc:
            "Largest per-device stream count to search (default 2); \
             mutually exclusive with $(b,--machine)")
  in
  let mode =
    Arg.(
      value & opt string "auto"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Search mode: $(b,auto) (exhaustive for small grids, hill \
             climbing beyond), $(b,exhaustive), or $(b,hill)")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domain-pool width for candidate evaluation (default: \
             $(b,COMP_JOBS) if set, else the recommended domain count). \
             The report is byte-identical at any width")
  in
  let run names all machine devices streams mode jobs =
    let mode =
      match mode with
      | "auto" -> Tune.Auto
      | "exhaustive" -> Tune.Exhaustive
      | "hill" -> Tune.Hill
      | m ->
          die_usage
            (Printf.sprintf "unknown mode %s (known: auto exhaustive hill)" m)
    in
    if machine <> None && (devices <> None || streams <> None) then
      die_usage "tune: --machine and --devices/--streams are mutually \
                 exclusive";
    let fleet =
      match machine with
      | Some spec -> parse_machine spec
      | None ->
          {
            Machine.Fleet.f_devices = Option.value devices ~default:2;
            f_streams = Option.value streams ~default:2;
            f_scales = [];
          }
    in
    if fleet.Machine.Fleet.f_devices < 1 || fleet.Machine.Fleet.f_streams < 1
    then die_usage "tune: --devices and --streams must be at least 1";
    let names = if all then Workloads.Registry.names else names in
    if names = [] then
      die_usage
        (Printf.sprintf
           "tune: name at least one workload or pass --all (known: %s)"
           (String.concat " " Workloads.Registry.names));
    let wls =
      List.map
        (fun n ->
          match Workloads.Registry.find n with
          | Some w -> w
          | None ->
              die_usage
                (Printf.sprintf "unknown workload %s (known: %s)" n
                   (String.concat " " Workloads.Registry.names)))
        names
    in
    let obs = Obs.create () in
    let cache = Tune.Cache.create ~obs () in
    let bcache = Transforms.Block_size.Cache.create ~obs () in
    let base =
      Machine.Config.with_scales Machine.Config.paper_default
        fleet.Machine.Fleet.f_scales
    in
    Printf.printf "auto-tune: devices<=%d streams<=%d%s\n"
      fleet.Machine.Fleet.f_devices fleet.Machine.Fleet.f_streams
      (match fleet.Machine.Fleet.f_scales with
      | [] -> ""
      | s ->
          " "
          ^ String.concat ","
              (List.concat_map
                 (fun (d, (sc : Machine.Config.scale)) ->
                   (if sc.Machine.Config.sc_cores <> 1.0 then
                      [
                        Printf.sprintf "dev%d:cores=%g" d
                          sc.Machine.Config.sc_cores;
                      ]
                    else [])
                   @
                   if sc.Machine.Config.sc_bw <> 1.0 then
                     [ Printf.sprintf "dev%d:bw=%g" d sc.Machine.Config.sc_bw ]
                   else [])
                 s));
    Printf.printf "  %-14s %-33s %12s %12s %8s %9s %7s\n" "workload"
      "best config" "makespan" "default" "speedup" "explored" "pruned";
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let pre =
          Tune.prepare ~base ~obs ~block_cache:bcache
            ~max_devices:fleet.Machine.Fleet.f_devices
            ~max_streams:fleet.Machine.Fleet.f_streams w
        in
        let rep = Tune.run ?jobs ~obs ~cache ~mode pre in
        Printf.printf "  %-14s %-33s %12.6f %12.6f %7.2fx %9d %7d\n"
          w.Workloads.Workload.name
          (Tune.config_to_string rep.Tune.r_best.Tune.pt_config)
          rep.Tune.r_best.Tune.pt_makespan rep.Tune.r_default.Tune.pt_makespan
          (Tune.speedup rep) rep.Tune.r_explored rep.Tune.r_pruned)
      wls;
    Printf.printf
      "tune.explored=%d tune.pruned=%d tune.cache.hits=%d \
       tune.cache.misses=%d tune.block_cache.hits=%d \
       tune.block_cache.misses=%d\n"
      (Obs.count obs "tune.explored")
      (Obs.count obs "tune.pruned")
      (Obs.count obs "tune.cache.hits")
      (Obs.count obs "tune.cache.misses")
      (Obs.count obs "tune.block_cache.hits")
      (Obs.count obs "tune.block_cache.misses")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the (devices, streams, nblocks) space for each workload's \
          makespan-optimal offload configuration, over an optionally \
          heterogeneous device fleet")
    Term.(
      const run $ names_arg $ all $ machine_arg $ devices $ streams $ mode
      $ jobs)

(* --- serve --- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket at $(docv) instead of stdin; \
             one connection at a time, state (compile cache, stats) kept \
             across connections")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "Client mode: send stdin's request lines to the server at \
             $(docv) and print its response lines (retries while the \
             server starts up)")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domain-pool width for request execution (default: \
             $(b,COMP_JOBS) if set, else the recommended domain count). \
             The response stream is byte-identical at any width")
  in
  let queue =
    Arg.(
      value & opt int Serve.default_config.Serve.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: reject requests with $(b,queue_full) once \
             $(docv) are waiting")
  in
  let batch =
    Arg.(
      value & opt int Serve.default_config.Serve.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Dispatch queued requests to the pool in batches of $(docv) \
             (a fixed sequence point, independent of --jobs)")
  in
  let max_fuel =
    Arg.(
      value & opt int Serve.default_config.Serve.max_fuel
      & info [ "max-fuel" ] ~docv:"N"
          ~doc:"Per-request interpreter statement budget ceiling")
  in
  let max_time =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-time" ] ~docv:"SECONDS"
          ~doc:
            "Per-request wall budget, converted to fuel at 2,000,000 \
             statements per second")
  in
  let run socket connect jobs queue batch max_fuel max_time =
    match connect with
    | Some path ->
        if socket <> None then
          die_usage "serve: --socket and --connect are mutually exclusive";
        Serve.client ~path stdin stdout
    | None -> (
        let config =
          {
            Serve.jobs;
            queue = max 1 queue;
            batch = max 1 batch;
            max_fuel = max 1 max_fuel;
            max_time;
            timings = false;
          }
        in
        let t = Serve.create ~config () in
        match socket with
        | Some path -> Serve.serve_socket t ~path
        | None -> Serve.serve_stdin t)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run compc as a long-lived JSONL request daemon: one JSON \
          request per line (optimize/run/check/simulate/stats/shutdown), \
          one JSON response per line, with admission control, \
          per-request budgets and a request-shared compile cache")
    Term.(
      const run $ socket $ connect $ jobs $ queue $ batch $ max_fuel
      $ max_time)

(* --- --profile (top-level) --- *)

let profile_run ~faults ~engine file out =
  let prog = or_die (load file) in
  let obs = Obs.create () in
  match Minic.Compile_eval.run ~engine prog with
  | Error e ->
      Printf.eprintf "runtime error: %s\n" e;
      exit 1
  | Ok o ->
      let cfg = Machine.Config.with_faults Machine.Config.paper_default faults in
      let r =
        match
          Runtime.Replay.schedule_recovered ~obs cfg o.Minic.Interp.events
        with
        | rec_ ->
            (match rec_.Runtime.Replay.r_died_at with
            | Some at ->
                Printf.printf
                  "// device declared dead at %.6f s; recovered on the CPU\n"
                  at
            | None -> ());
            rec_.Runtime.Replay.r_result
        | exception Fault.Device_dead { dev = _; at; failures } ->
            Printf.eprintf
              "fault: device declared dead at %.6f s after %d failed \
               attempts (no CPU fallback in policy)\n"
              at failures;
            exit exit_device_dead
      in
      Format.printf "%a" (Machine.Trace.pp_profile ~obs) r;
      Option.iter
        (fun path ->
          match open_out path with
          | exception Sys_error e ->
              die_usage ("cannot write profile: " ^ e)
          | oc ->
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  output_string oc
                    (Obs.Json.to_string (Machine.Trace.profile_json ~obs r));
                  output_char oc '\n'))
        out

let default_term =
  let profile =
    Arg.(
      value
      & opt (some file) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Interpret a MiniC file, replay its offload trace on the machine \
             model, and print the observability profile: per-phase breakdown \
             (h2d/d2h/kernel/...), resource utilization, and runtime \
             counters")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"STATS.json"
          ~doc:"With $(b,--profile), also write the profile as JSON to $(docv)")
  in
  let run profile out faults engine =
    match profile with
    | Some file -> `Ok (profile_run ~faults ~engine file out)
    | None -> `Help (`Pager, None)
  in
  Term.(ret (const run $ profile $ out $ faults_arg $ eval_arg))

let () =
  let doc = "COMP: compiler optimizations for manycore processors" in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term (Cmd.info "compc" ~doc)
          [
            parse_cmd; optimize_cmd; run_cmd; simulate_cmd; report_cmd;
            analyze_cmd; list_cmd; check_cmd; tune_cmd; serve_cmd;
          ]))
