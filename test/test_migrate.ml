(* Multi-device block migration: trace cutting, placement
   conservation, work migration off dead devices, and the graceful
   degradation ladder (retry -> reset -> migrate -> host fallback). *)

open Helpers
open Runtime

let cfg = Machine.Config.paper_default

let spec_ok s =
  match Fault.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "fault spec %S: %s" s (Fault.error_message e)

let mcfg ?(spec = Fault.none) ~devices ~streams () =
  Machine.Config.with_faults
    (Machine.Config.with_devices cfg ~devices ~streams)
    spec

(* three offload blocks: staged inputs, outputs, and one resident
   (nocopy) dependency carried from the first block to the second *)
let events3 =
  [
    Minic.Interp.Ev_transfer { h2d_cells = 64; d2h_cells = 0; signal = None };
    Minic.Interp.Ev_kernel { work = 500; wait = None };
    Minic.Interp.Ev_transfer { h2d_cells = 0; d2h_cells = 64; signal = None };
    Minic.Interp.Ev_transfer { h2d_cells = 32; d2h_cells = 0; signal = None };
    Minic.Interp.Ev_resident { cells = 64 };
    Minic.Interp.Ev_kernel { work = 400; wait = None };
    Minic.Interp.Ev_transfer { h2d_cells = 16; d2h_cells = 0; signal = None };
    Minic.Interp.Ev_kernel { work = 300; wait = None };
    Minic.Interp.Ev_transfer { h2d_cells = 0; d2h_cells = 32; signal = None };
  ]

let conserved ?(blocks = 3) m =
  match Check.migration_conserved ~blocks m with
  | None -> ()
  | Some msg -> Alcotest.failf "conservation violated: %s" msg

(* Inputs for the [makespan] = [schedule] property: a random trace
   (staged inputs, resident liabilities, outputs, waits), a 1-4 device
   x 1-3 stream fleet with per-device [cores]/[bw] scales, either
   duplex, and a fault spec mixing transfer failures and retries,
   killed transfers and early death, resets placed inside the clean
   makespan, and either fallback policy. *)
type makespan_case = {
  mc_devices : int;
  mc_streams : int;
  mc_half : bool;
  mc_scales : (int * float * float) list;
  mc_events : Minic.Interp.event list;
  mc_xfer : float;
  mc_retries : int;
  mc_dead_after : int;
  mc_kills : (int option * int) list;  (** [devN:] prefix, transfer index *)
  mc_resets : (int option * float) list;  (** fraction of clean makespan *)
  mc_fallback : bool;
  mc_seed : int;
}

(* the case's fault spec, with each reset at its fraction of [clean] *)
let makespan_case_spec c ~clean =
  let prefix = function Some d -> Printf.sprintf "dev%d:" d | None -> "" in
  String.concat ","
    ([
       Printf.sprintf "seed=%d" c.mc_seed;
       Printf.sprintf "retries=%d" c.mc_retries;
       Printf.sprintf "dead-after=%d" c.mc_dead_after;
       (if c.mc_fallback then "fallback" else "no-fallback");
     ]
    @ (if c.mc_xfer > 0. then [ Printf.sprintf "xfer=%g" c.mc_xfer ] else [])
    @ List.map
        (fun (d, i) -> Printf.sprintf "%skill@%d" (prefix d) i)
        c.mc_kills
    @ List.map
        (fun (d, f) -> Printf.sprintf "%sreset@%.9f" (prefix d) (f *. clean))
        c.mc_resets)

let arb_makespan_case =
  let open QCheck.Gen in
  let block =
    let* h2d = int_range 0 200 in
    let* res = oneof [ return 0; int_range 1 100 ] in
    let* work = int_range 1 2000 in
    let* d2h = int_range 0 200 in
    let* wait = bool in
    return
      (List.concat
         [
           [
             Minic.Interp.Ev_transfer
               { h2d_cells = h2d; d2h_cells = 0; signal = None };
           ];
           (if res > 0 then [ Minic.Interp.Ev_resident { cells = res } ]
            else []);
           (if wait then [ Minic.Interp.Ev_wait 0 ] else []);
           [ Minic.Interp.Ev_kernel { work; wait = None } ];
           [
             Minic.Interp.Ev_transfer
               { h2d_cells = 0; d2h_cells = d2h; signal = None };
           ];
         ])
  in
  let gen =
    let* devices = int_range 1 4 in
    let* streams = int_range 1 3 in
    let* half = bool in
    let* scales =
      list_size (int_range 0 devices)
        (triple (int_range 0 (devices - 1))
           (oneofl [ 0.25; 0.5; 1.0; 2.0 ])
           (oneofl [ 0.5; 1.0; 1.5 ]))
    in
    let* events = map List.concat (list_size (int_range 0 12) block) in
    let dev = opt ~ratio:0.6 (int_range 0 (devices - 1)) in
    let* xfer = oneofl [ 0.; 0.1; 0.3 ] in
    let* retries = int_range 0 3 in
    let* dead_after = int_range 1 3 in
    let* kills = list_size (int_range 0 2) (pair dev (int_range 0 20)) in
    let* resets = list_size (int_range 0 2) (pair dev (float_range 0. 1.)) in
    let* fallback = bool in
    let* seed = int_range 0 1000 in
    return
      {
        mc_devices = devices;
        mc_streams = streams;
        mc_half = half;
        mc_scales = scales;
        mc_events = events;
        mc_xfer = xfer;
        mc_retries = retries;
        mc_dead_after = dead_after;
        mc_kills = kills;
        mc_resets = resets;
        mc_fallback = fallback;
        mc_seed = seed;
      }
  in
  let print c =
    Printf.sprintf "%dx%d%s scales=[%s] faults=%s (resets x clean makespan) \
                    events=%d"
      c.mc_devices c.mc_streams
      (if c.mc_half then " half-duplex" else "")
      (String.concat ";"
         (List.map
            (fun (d, cores, bw) -> Printf.sprintf "dev%d:%g/%g" d cores bw)
            c.mc_scales))
      (makespan_case_spec c ~clean:1.)
      (List.length c.mc_events)
  in
  QCheck.make ~print gen

(* the case's machine and fault spec; resets land inside the clean
   makespan so they hit the schedule *)
let makespan_case_cfg c =
  let base =
    Machine.Config.with_scales
      (Machine.Config.with_devices cfg ~devices:c.mc_devices
         ~streams:c.mc_streams)
      (List.map
         (fun (d, cores, bw) ->
           (d, { Machine.Config.sc_cores = cores; sc_bw = bw }))
         c.mc_scales)
  in
  let base =
    if c.mc_half then
      {
        base with
        Machine.Config.pcie =
          { base.Machine.Config.pcie with duplex = Machine.Config.Half_duplex };
      }
    else base
  in
  let clean = Migrate.makespan base c.mc_events in
  Machine.Config.with_faults base (spec_ok (makespan_case_spec c ~clean))

let makespan_bits_or_death f =
  match f () with
  | m -> Ok (Int64.bits_of_float m)
  | exception Fault.Device_dead { dev; at; failures } ->
      Error (dev, Int64.bits_of_float at, failures)

let suite =
  [
    tc "blocks_of_events cuts the trace at kernels" (fun () ->
        match Migrate.blocks_of_events events3 with
        | [ b0; b1; b2 ] ->
            Alcotest.(check int) "b0 h2d" 64 b0.Migrate.blk_h2d_cells;
            Alcotest.(check int) "b0 d2h" 64 b0.Migrate.blk_d2h_cells;
            Alcotest.(check int) "b0 work" 500 b0.Migrate.blk_work;
            Alcotest.(check int) "b0 resident" 0 b0.Migrate.blk_resident_cells;
            Alcotest.(check int) "b1 h2d" 32 b1.Migrate.blk_h2d_cells;
            Alcotest.(check int)
              "b1 resident" 64 b1.Migrate.blk_resident_cells;
            Alcotest.(check int) "b2 h2d" 16 b2.Migrate.blk_h2d_cells;
            Alcotest.(check int) "b2 d2h" 32 b2.Migrate.blk_d2h_cells;
            Alcotest.(check (list int))
              "ids in order" [ 0; 1; 2 ]
              [ b0.Migrate.blk_id; b1.Migrate.blk_id; b2.Migrate.blk_id ]
        | bs -> Alcotest.failf "expected 3 blocks, got %d" (List.length bs));
    tc "clean single-device schedule conserves placements" (fun () ->
        let obs = Obs.create () in
        let m = Migrate.schedule ~obs (mcfg ~devices:1 ~streams:1 ()) events3 in
        conserved m;
        Alcotest.(check int) "nothing migrated" 0 m.Migrate.m_migrated;
        Alcotest.(check bool) "no deaths" true (m.Migrate.m_dead = []);
        Alcotest.(check bool) "no fallback" false m.Migrate.m_fellback;
        Alcotest.(check int) "blocks counted" 3 (Obs.count obs "migrate.blocks");
        Alcotest.(check int)
          "no resident re-pay on one device" 0
          (Obs.count obs "fault.resident_repaid");
        List.iter
          (fun (p : Migrate.placement) ->
            Alcotest.(check int) "all on dev 0" 0 p.Migrate.pl_dev;
            Alcotest.(check int) "never re-queued" 0 p.Migrate.pl_migrations)
          m.Migrate.m_placements);
    tc "extra devices never slow the clean schedule" (fun () ->
        let mk d s =
          (Migrate.schedule (mcfg ~devices:d ~streams:s ()) events3)
            .Migrate.m_result.Machine.Engine.makespan
        in
        let m1 = mk 1 1 and m4 = mk 4 2 in
        Alcotest.(check bool)
          (Printf.sprintf "4x2 (%.6f) <= 1x1 (%.6f)" m4 m1)
          true
          (m4 <= m1 +. 1e-9));
    tc "dead device migrates its blocks to the survivor" (fun () ->
        let obs = Obs.create () in
        let spec = spec_ok "dev0:kill@0,dead-after=1,seed=7" in
        let m =
          Migrate.schedule ~obs (mcfg ~spec ~devices:2 ~streams:1 ()) events3
        in
        conserved m;
        (match m.Migrate.m_dead with
        | [ (0, at) ] ->
            Alcotest.(check bool) "death has a time" true (at >= 0.)
        | d -> Alcotest.failf "expected dev0 dead, got %d deaths"
                 (List.length d));
        Alcotest.(check bool)
          "work actually migrated" true (m.Migrate.m_migrated > 0);
        Alcotest.(check bool) "no host fallback" false m.Migrate.m_fellback;
        Alcotest.(check int)
          "migrated counter matches" m.Migrate.m_migrated
          (Obs.count obs "fault.migrated_blocks");
        Alcotest.(check int)
          "one dead device counted" 1 (Obs.count obs "fault.dead_devices");
        (* every block ended on the survivor *)
        List.iter
          (fun (p : Migrate.placement) ->
            Alcotest.(check int) "finished on dev 1" 1 p.Migrate.pl_dev)
          m.Migrate.m_placements);
    tc "spreading blocks off the resident home re-pays the h2d" (fun () ->
        (* clean 2-device run: block 1's resident inputs live on dev0
           (where block 0 ran) but greedy balance places block 1 on
           dev1 — the elided transfer must be re-paid there *)
        let obs = Obs.create () in
        let m = Migrate.schedule ~obs (mcfg ~devices:2 ~streams:1 ()) events3 in
        conserved m;
        Alcotest.(check bool)
          "resident transfer re-paid" true
          (Obs.count obs "fault.resident_repaid" > 0);
        let solo =
          Migrate.schedule (mcfg ~devices:1 ~streams:1 ()) events3
        in
        Alcotest.(check bool)
          "re-pay is on the wire" true
          (m.Migrate.m_bytes_moved > solo.Migrate.m_bytes_moved +. 1e-9));
    tc "migration off a dead resident home re-pays the h2d" (fun () ->
        (* blocks 1 and 2 pack onto dev1 (block 0 is the heavy one), so
           block 2's resident pool lives on dev1 where block 1 ran.
           dev1 dies at block 2's h2d (its 2nd transfer): the block
           migrates to dev0, which does not hold the pool — the dead
           device's resident data is re-paid on the survivor *)
        let events =
          [
            Minic.Interp.Ev_transfer
              { h2d_cells = 64; d2h_cells = 0; signal = None };
            Minic.Interp.Ev_kernel { work = 500; wait = None };
            Minic.Interp.Ev_transfer
              { h2d_cells = 8; d2h_cells = 0; signal = None };
            Minic.Interp.Ev_kernel { work = 1; wait = None };
            Minic.Interp.Ev_transfer
              { h2d_cells = 64; d2h_cells = 0; signal = None };
            Minic.Interp.Ev_resident { cells = 64 };
            Minic.Interp.Ev_kernel { work = 100; wait = None };
            Minic.Interp.Ev_transfer
              { h2d_cells = 0; d2h_cells = 16; signal = None };
          ]
        in
        let obs = Obs.create () in
        let spec = spec_ok "dev1:kill@1,dead-after=1,seed=7" in
        let m =
          Migrate.schedule ~obs (mcfg ~spec ~devices:2 ~streams:1 ()) events
        in
        conserved m;
        (match m.Migrate.m_dead with
        | [ (1, _) ] -> ()
        | d -> Alcotest.failf "expected dev1 dead, got %d deaths"
                 (List.length d));
        (* block 1 (tiny kernel) drained before the death, so only the
           dying block re-queues; the resident pool stays behind on the
           corpse *)
        Alcotest.(check int) "one block migrated" 1 m.Migrate.m_migrated;
        List.iter
          (fun (p : Migrate.placement) ->
            Alcotest.(check int)
              (Printf.sprintf "block %d ends on the survivor" p.Migrate.pl_block)
              0 p.Migrate.pl_dev)
          (List.filter
             (fun (p : Migrate.placement) -> p.Migrate.pl_migrations > 0)
             m.Migrate.m_placements);
        Alcotest.(check bool)
          "dead device's resident data re-paid" true
          (Obs.count obs "fault.resident_repaid" > 0));
    tc "every device dead falls back to the host" (fun () ->
        let spec = spec_ok "kill@0,dead-after=1,seed=7" in
        let m =
          Migrate.schedule (mcfg ~spec ~devices:2 ~streams:1 ()) events3
        in
        conserved m;
        Alcotest.(check bool) "fell back" true m.Migrate.m_fellback;
        Alcotest.(check int) "both devices died" 2
          (List.length m.Migrate.m_dead);
        Alcotest.(check bool)
          "some block ran on the host" true
          (List.exists
             (fun (p : Migrate.placement) -> p.Migrate.pl_dev = -1)
             m.Migrate.m_placements);
        Alcotest.(check bool)
          "finite makespan" true
          (Float.is_finite m.Migrate.m_result.Machine.Engine.makespan));
    tc "no-fallback policy dies loudly once every device is dead"
      (fun () ->
        let spec = spec_ok "kill@0,dead-after=1,no-fallback,seed=7" in
        match
          Migrate.schedule (mcfg ~spec ~devices:2 ~streams:1 ()) events3
        with
        | exception Fault.Device_dead { failures; _ } ->
            Alcotest.(check bool) "counted attempts" true (failures > 0)
        | _ -> Alcotest.fail "expected Device_dead to escape");
    tc "degradation is monotone in the number of dead devices" (fun () ->
        let devices = 3 in
        let run dead =
          let spec =
            spec_ok
              (String.concat ","
                 ("seed=7" :: "dead-after=1"
                 :: List.init dead (Printf.sprintf "dev%d:kill@0")))
          in
          Migrate.schedule (mcfg ~spec ~devices ~streams:1 ()) events3
        in
        let prev = ref 0. in
        for dead = 0 to devices do
          let m = run dead in
          conserved m;
          let mk = m.Migrate.m_result.Machine.Engine.makespan in
          Alcotest.(check bool)
            (Printf.sprintf "dead=%d: %.6f >= %.6f" dead mk !prev)
            true
            (mk >= !prev -. 1e-9);
          Alcotest.(check bool)
            (Printf.sprintf "dead=%d fallback iff all dead" dead)
            (dead = devices) m.Migrate.m_fellback;
          if dead > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "dead=%d migrated something" dead)
              true
              (m.Migrate.m_migrated > 0);
          prev := mk
        done);
    tc "check_migrated: workload stays byte-identical under migration"
      (fun () ->
        let prog =
          parse
            (Workloads.Registry.find_exn "blackscholes").Workloads.Workload
              .source
        in
        let spec = spec_ok "dev0:kill@0,dead-after=1,seed=7" in
        let r =
          Check.check_migrated ~devices:4 ~streams:2 ~spec prog
        in
        Alcotest.(check bool) "migrated_ok" true (Check.migrated_ok r);
        Alcotest.(check bool) "blocks found" true (r.Check.mg_blocks > 0);
        Alcotest.(check bool) "migrated" true (r.Check.mg_migrated > 0);
        Alcotest.(check (list int)) "dev0 died" [ 0 ] r.Check.mg_dead;
        Alcotest.(check bool) "no fallback" false r.Check.mg_fellback;
        Alcotest.(check bool)
          "recovery not free" true
          (r.Check.mg_faulted_s >= r.Check.mg_clean_s -. 1e-9));
    prop "random traces conserve placements under dev0 death" ~count:50
      QCheck.(
        pair (int_range 1 4)
          (small_list (pair (int_range 0 100) (int_range 1 200))))
      (fun (devices, shapes) ->
        let events =
          List.concat_map
            (fun (h2d, work) ->
              [
                Minic.Interp.Ev_transfer
                  { h2d_cells = h2d; d2h_cells = 0; signal = None };
                Minic.Interp.Ev_kernel { work; wait = None };
              ])
            shapes
        in
        let blocks = List.length shapes in
        let spec = spec_ok "dev0:kill@0,dead-after=1,seed=5" in
        let m =
          Migrate.schedule (mcfg ~spec ~devices ~streams:2 ()) events
        in
        Check.migration_conserved ~blocks m = None
        && Float.is_finite m.Migrate.m_result.Machine.Engine.makespan
        && (m.Migrate.m_fellback || devices > 1
           || m.Migrate.m_dead = []));
    prop "makespan is schedule's makespan, bit for bit, or the same death"
      ~count:300 arb_makespan_case (fun c ->
        let mcfg = makespan_case_cfg c in
        makespan_bits_or_death (fun () -> Migrate.makespan mcfg c.mc_events)
        = makespan_bits_or_death (fun () ->
              (Migrate.schedule mcfg c.mc_events).Migrate.m_result
                .Machine.Engine.makespan));
  ]
