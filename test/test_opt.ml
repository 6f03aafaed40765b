open Helpers

(** The classic optimizer mid-end (lib/opt): positive per-pass cases,
    the committed legality corpus — one fixture per pass where it must
    {e refuse} to fire, with the refusal counted — and differential
    validation over the generator families, all under both evaluator
    engines. *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus name = read (Filename.concat "corpus" name)

let typed src =
  let prog = parse src in
  (match Minic.Typecheck.check_program prog with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "typecheck: %s" e);
  prog

let counter obs name =
  Option.value (List.assoc_opt name (Obs.counters obs)) ~default:0

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) frag || go (i + 1)) in
  m = 0 || go 0

let engines = [ Minic.Interp.Reference; Minic.Interp.Compiled ]

(* The optimizer oracle: optimized and original must be
   indistinguishable (output, return value, final globals) under both
   engines; identical pre-existing failure is the only excuse. *)
let assert_equiv name prog prog' =
  List.iter
    (fun engine ->
      match Check.equiv ~engine prog prog' with
      | Check.Equal | Check.Both_failed _ -> ()
      | v ->
          Alcotest.failf "%s [%s]: optimizer changed behaviour: %s\n%s" name
            (Minic.Interp.engine_name engine)
            (Check.verdict_str v)
            (Minic.Pretty.program_to_string prog'))
    engines

(* One legality fixture: running [pass] alone must fire 0 times, count
   the named refusal, keep the [survives] fragments in the printed
   program, and preserve behaviour. *)
let refusal ~file ~pass ~reason ~survives =
  tc (Printf.sprintf "%s refuses on %s" (Opt.pass_name pass) file) (fun () ->
      let prog = typed (corpus file) in
      let obs = Obs.create () in
      let prog' = Opt.run ~obs ~passes:[ pass ] prog in
      let name = Opt.pass_name pass in
      Alcotest.(check int)
        (Printf.sprintf "opt.%s.fired" name)
        0
        (counter obs (Printf.sprintf "opt.%s.fired" name));
      let blocked = Printf.sprintf "opt.%s.blocked.%s" name reason in
      if counter obs blocked < 1 then
        Alcotest.failf "expected %s to be counted; report:\n%s" blocked
          (Opt.report obs);
      let printed = Minic.Pretty.program_to_string prog' in
      List.iter
        (fun frag ->
          if not (contains printed frag) then
            Alcotest.failf "%s must survive in:\n%s" frag printed)
        survives;
      assert_equiv file prog prog')

(* One positive case: [pass] alone fires at least once, the [expect]
   fragments appear, and behaviour is preserved. *)
let fires ~name ~src ~pass ~expect =
  tc name (fun () ->
      let prog = typed src in
      let obs = Obs.create () in
      let prog' = Opt.run ~obs ~passes:[ pass ] prog in
      let pn = Opt.pass_name pass in
      if counter obs (Printf.sprintf "opt.%s.fired" pn) < 1 then
        Alcotest.failf "expected opt.%s.fired >= 1; report:\n%s" pn
          (Opt.report obs);
      let printed = Minic.Pretty.program_to_string prog' in
      List.iter
        (fun frag ->
          if not (contains printed frag) then
            Alcotest.failf "expected %s in:\n%s" frag printed)
        expect;
      assert_equiv name prog prog')

(* An inline-source refusal: [pass] alone must count [reason], keep the
   [survives] fragments, and preserve behaviour. *)
let blocks ~name ~src ~pass ~reason ~survives =
  tc name (fun () ->
      let prog = typed src in
      let obs = Obs.create () in
      let prog' = Opt.run ~obs ~passes:[ pass ] prog in
      let blocked =
        Printf.sprintf "opt.%s.blocked.%s" (Opt.pass_name pass) reason
      in
      if counter obs blocked < 1 then
        Alcotest.failf "expected %s to be counted; report:\n%s" blocked
          (Opt.report obs);
      let printed = Minic.Pretty.program_to_string prog' in
      List.iter
        (fun frag ->
          if not (contains printed frag) then
            Alcotest.failf "%s must survive in:\n%s" frag printed)
        survives;
      assert_equiv name prog prog')

(* [pass] alone leaves the [survives] fragments in place (a fact it
   must not use), and behaviour is preserved. *)
let keeps ~name ~src ~pass ~survives =
  tc name (fun () ->
      let prog = typed src in
      let prog' = Opt.run ~passes:[ pass ] prog in
      let printed = Minic.Pretty.program_to_string prog' in
      List.iter
        (fun frag ->
          if not (contains printed frag) then
            Alcotest.failf "%s must survive in:\n%s" frag printed)
        survives;
      assert_equiv name prog prog')

let suite =
  [
    (* --- each pass fires where it is allowed to --- *)
    fires ~name:"fold: literal arithmetic and propagation"
      ~src:
        "int main(void) { int a = 2 + 3; int b = a * a; print_int(b + 1); \
         return 0; }"
      ~pass:Opt.Fold ~expect:[ "26" ];
    fires ~name:"dce: dead declaration and dead branch vanish"
      ~src:
        "int main(void) { int dead = 41; if (1) { print_int(1); } else { \
         print_int(2); } return 0; }"
      ~pass:Opt.Dce
      ~expect:[ "print_int(1)" ];
    fires ~name:"fold: mixed int/float arithmetic promotes to float"
      ~src:"int main(void) { print_float(1 + 0.5); return 0; }"
      ~pass:Opt.Fold ~expect:[ "print_float(1.5)" ];
    fires ~name:"fold: literal comparison becomes a boolean"
      ~src:
        "int main(void) { if (3 < 4) { print_int(1); } else { print_int(2); \
         } return 0; }"
      ~pass:Opt.Fold ~expect:[ "if (true)" ];
    fires ~name:"fold: store coercion truncates a float into an int"
      ~src:"int main(void) { int x = 2.7; print_int(x); return 0; }"
      ~pass:Opt.Fold ~expect:[ "print_int(2)" ];
    fires ~name:"fold: literal builtins imin/imax/abs evaluate"
      ~src:
        "int main(void) { print_int(imin(3, 9) + imax(3, 9) + abs(-4)); \
         return 0; }"
      ~pass:Opt.Fold ~expect:[ "print_int(16)" ];
    fires ~name:"fold: literal global propagates into main"
      ~src:"int g = 5;\nint main(void) { print_int(g * 2); return 0; }"
      ~pass:Opt.Fold ~expect:[ "print_int(10)" ];
    fires ~name:"fold: agreeing if arms propagate past the join"
      ~src:
        "int main(int n) { int x = 0; if (n > 0) { x = 3; } else { x = 3; } \
         print_int(x + 1); return 0; }"
      ~pass:Opt.Fold ~expect:[ "print_int(4)" ];
    keeps ~name:"fold: a variable the loop writes is not propagated"
      ~src:
        "int main(void) { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = \
         s + i; } print_int(s); return 0; }"
      ~pass:Opt.Fold ~survives:[ "print_int(s)"; "s = s + i" ];
    keeps ~name:"fold: float + 0 is not an identity"
      ~src:
        "float h(float x) { return x + 0; }\n\
         int main(void) { print_float(h(-0.0)); return 0; }"
      ~pass:Opt.Fold ~survives:[ "x + 0" ];
    blocks ~name:"fold: false && call keeps the call"
      ~src:
        "int f(int x) { print_int(x); return x; }\n\
         int main(void) { if (false && f(1) > 0) { print_int(2); } return 0; }"
      ~pass:Opt.Fold ~reason:"effect" ~survives:[ "f(1)" ];
    fires ~name:"dce: statements after return are unreachable"
      ~src:"int main(void) { print_int(1); return 0; print_int(2); }"
      ~pass:Opt.Dce ~expect:[ "return 0" ];
    fires ~name:"dce: never-tripping loops vanish"
      ~src:
        "int main(void) { while (0) { print_int(1); } for (int i = 5; i < 2; \
         i = i + 1) { print_int(i); } print_int(3); return 0; }"
      ~pass:Opt.Dce ~expect:[ "print_int(3)" ];
    fires ~name:"dce: a pragma outlives its dead child"
      ~src:
        "int main(void) { int a[4]; for (int i = 0; i < 4; i = i + 1) { a[i] = \
         i; }\n\
         #pragma offload target(mic:0) in(a[0:4])\n\
         { int unused = 3; }\n\
         print_int(a[2]); return 0; }"
      ~pass:Opt.Dce ~expect:[ "#pragma offload" ];
    keeps ~name:"dce: an unused declaration with a call initializer stays"
      ~src:
        "int f(int x) { print_int(x); return x; }\n\
         int main(void) { int unused = f(7); print_int(1); return 0; }"
      ~pass:Opt.Dce ~survives:[ "f(7)" ];
    tc "pass names round-trip and the removed passes are unknown" (fun () ->
        List.iter
          (fun p ->
            if Opt.pass_of_name (Opt.pass_name p) <> Some p then
              Alcotest.failf "%s does not round-trip" (Opt.pass_name p))
          Opt.all_passes;
        Alcotest.(check (list string)) "pass_names" [ "fold"; "dce" ]
          Opt.pass_names;
        List.iter
          (fun n ->
            if Opt.pass_of_name n <> None then
              Alcotest.failf "%s must not name a pass" n)
          [ "inline"; "licm"; "cse"; "strength"; "" ]);
    (* --- the legality corpus: refusals, counted and preserved --- *)
    refusal ~file:"opt_fold_trap.mc" ~pass:Opt.Fold ~reason:"div-by-zero"
      ~survives:[ "1 / 0" ];
    refusal ~file:"opt_dce_trap.mc" ~pass:Opt.Dce ~reason:"trapping"
      ~survives:[ "10 / d" ];
    (* --- the pipeline end to end --- *)
    tc "full pipeline preserves the corpus programs" (fun () ->
        List.iter
          (fun file ->
            let prog = typed (corpus file) in
            assert_equiv file prog (Opt.run prog))
          [
            "fig05a_blackscholes.mc"; "fig06_streamcluster.mc";
            "fig07_srad.mc"; "fig08_patterns.mc"; "opt_fold_trap.mc";
            "opt_dce_trap.mc";
          ]);
    tc "Comp.optimize ~opt runs the mid-end before the COMP passes" (fun () ->
        let prog = typed (corpus "fig05a_blackscholes.mc") in
        let obs = Obs.create () in
        let prog', _ = Comp.optimize ~opt:Opt.all_passes ~obs prog in
        if
          List.for_all
            (fun (k, _) -> not (contains k "opt."))
            (Obs.counters obs)
        then Alcotest.fail "expected opt.* counters from the mid-end";
        assert_equiv "fig05a via Comp.optimize" prog prog');
    tc "generator families: every pass and the pipeline preserve semantics"
      (fun () ->
        let pass_sets =
          List.map (fun p -> [ p ]) Opt.all_passes @ [ Opt.all_passes ]
        in
        List.iter
          (fun pat ->
            List.iter
              (fun seed ->
                let prog = typed (Check.Genprog.generate pat ~seed) in
                List.iter
                  (fun passes ->
                    let what =
                      Printf.sprintf "%s seed=%d passes=%s"
                        (Check.Genprog.pattern_name pat)
                        seed
                        (String.concat "," (List.map Opt.pass_name passes))
                    in
                    assert_equiv what prog (Opt.run ~passes prog))
                  pass_sets)
              [ 1; 42; 1234 ])
          Check.Genprog.all_patterns);
    tc "the report renders fired and blocked counters" (fun () ->
        let prog =
          typed
            "int main(void) { int a = 1 + 2; if (0) { print_int(1 / 0); } \
             print_int(a); return 0; }"
        in
        let obs = Obs.create () in
        ignore (Opt.run ~obs prog);
        let r = Opt.report obs in
        List.iter
          (fun frag ->
            if not (contains r frag) then
              Alcotest.failf "expected %s in report:\n%s" frag r)
          [ "opt.fold.fired"; "opt.fold.blocked.div-by-zero" ]);
  ]
