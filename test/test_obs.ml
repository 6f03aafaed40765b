open Helpers
module P = Runtime.Plan

let cfg = Machine.Config.paper_default

(* Minimal recursive-descent JSON syntax checker — there is no JSON
   parser in the dependency set, and the point is exactly that the
   hand-rolled encoder emits valid syntax for arbitrary profiles. *)
let json_ok (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let adv () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        adv ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some x when x = c ->
        adv ();
        true
    | _ -> false
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (
      pos := !pos + l;
      true)
    else false
  in
  let string_rest () =
    (* after the opening quote *)
    let rec go () =
      match peek () with
      | None -> false
      | Some '"' ->
          adv ();
          true
      | Some '\\' ->
          adv ();
          if peek () = None then false
          else (
            adv ();
            go ())
      | Some _ ->
          adv ();
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when numchar c -> true | _ -> false do
      adv ()
    done;
    !pos > start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        adv ();
        obj_first ()
    | Some '[' ->
        adv ();
        arr_first ()
    | Some '"' ->
        adv ();
        string_rest ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> false
  and pair () =
    expect '"' && string_rest () && expect ':' && value ()
  and obj_first () =
    skip_ws ();
    match peek () with
    | Some '}' ->
        adv ();
        true
    | _ -> pair () && obj_rest ()
  and obj_rest () =
    skip_ws ();
    match peek () with
    | Some '}' ->
        adv ();
        true
    | Some ',' ->
        adv ();
        pair () && obj_rest ()
    | _ -> false
  and arr_first () =
    skip_ws ();
    match peek () with
    | Some ']' ->
        adv ();
        true
    | _ -> value () && arr_rest ()
  and arr_rest () =
    skip_ws ();
    match peek () with
    | Some ']' ->
        adv ();
        true
    | Some ',' ->
        adv ();
        value () && arr_rest ()
    | _ -> false
  in
  let ok = value () in
  skip_ws ();
  ok && !pos = n

let close a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* A sink recipe: counters, histogram samples and completed spans over
   small name pools, so a source and a destination share names. *)
type sink_op =
  | Incr of string * int
  | Observe of string * float
  | Span of Obs.kind * float * float

let sink_op_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      (2, map2 (fun n by -> Incr (n, by)) name (int_range 1 9));
      (3, map2 (fun n v -> Observe (n, v)) name (float_range 0. 5000.));
      ( 2,
        map3
          (fun k s d -> Span (k, s, s +. d))
          (oneofl Obs.all_kinds) (float_range 0. 1.) (float_range 0. 1.) );
    ]

let build ops =
  let o = Obs.create () in
  List.iter
    (function
      | Incr (n, by) -> Obs.incr ~by o n
      | Observe (n, v) -> Obs.observe o n v
      | Span (k, start, stop) -> Obs.span o k ~label:"l" ~start ~stop)
    ops;
  o

(* Everything a sink exposes, histogram buckets included. *)
let snapshot o =
  ( Obs.Json.to_string (Obs.to_json o),
    List.map
      (fun (n, (h : Obs.histogram)) -> (n, Array.to_list h.h_buckets))
      (Obs.histograms o),
    Obs.spans o )

let arb_merge_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (src, dst, k) ->
      Printf.sprintf "src ops %d, dst ops %d, k %d" (List.length src)
        (List.length dst) k)
    (triple
       (list_size (int_range 0 12) sink_op_gen)
       (list_size (int_range 0 12) sink_op_gen)
       (int_range 1 4))

let suite =
  [
    tc "counters accumulate and list sorted" (fun () ->
        let o = Obs.create () in
        Obs.incr o "b";
        Obs.incr ~by:4 o "a";
        Obs.add o "a" 2;
        Alcotest.(check int) "a" 6 (Obs.count o "a");
        Alcotest.(check int) "b" 1 (Obs.count o "b");
        Alcotest.(check int) "absent" 0 (Obs.count o "zzz");
        Alcotest.(check (list (pair string int)))
          "sorted"
          [ ("a", 6); ("b", 1) ]
          (Obs.counters o));
    tc "histogram tracks count/total/min/max" (fun () ->
        let o = Obs.create () in
        List.iter (Obs.observe o "x") [ 1.0; 3.0; 2.0 ];
        match Obs.histogram o "x" with
        | None -> Alcotest.fail "missing histogram"
        | Some h ->
            Alcotest.(check int) "count" 3 h.Obs.h_count;
            Alcotest.(check (float 1e-12)) "total" 6.0 h.Obs.h_total;
            Alcotest.(check (float 1e-12)) "min" 1.0 h.Obs.h_min;
            Alcotest.(check (float 1e-12)) "max" 3.0 h.Obs.h_max;
            Alcotest.(check (float 1e-12)) "mean" 2.0 (Obs.mean h));
    tc "histogram min is the first sample, not zero" (fun () ->
        (* regression guard: a zero-initialized running minimum would
           report 0 for any all-positive sample stream *)
        let o = Obs.create () in
        Obs.observe o "lat" 3.5;
        match Obs.histogram o "lat" with
        | None -> Alcotest.fail "missing histogram"
        | Some h ->
            Alcotest.(check (float 1e-12)) "min" 3.5 h.Obs.h_min;
            Alcotest.(check (float 1e-12)) "max" 3.5 h.Obs.h_max);
    tc "span begin/end round-trips" (fun () ->
        let o = Obs.create () in
        let id = Obs.span_begin ~bytes:7. o Obs.H2d ~label:"t" ~start:1.0 in
        Alcotest.(check (list (pair string string)))
          "open" [ ("h2d", "t") ]
          (List.map
             (fun (k, l) -> (Obs.kind_name k, l))
             (Obs.unclosed o));
        Obs.span_end o id ~stop:2.5;
        Alcotest.(check int) "closed" 0 (List.length (Obs.unclosed o));
        match Obs.spans o with
        | [ sp ] ->
            Alcotest.(check (float 1e-12)) "start" 1.0 sp.Obs.span_start;
            Alcotest.(check (float 1e-12)) "stop" 2.5 sp.Obs.span_stop;
            Alcotest.(check (float 1e-12)) "bytes" 7. sp.Obs.span_bytes
        | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
    tc "ending an unknown span is rejected" (fun () ->
        let o = Obs.create () in
        match Obs.span_end o 42 ~stop:1.0 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected invalid_arg");
    tc "kind names round-trip" (fun () ->
        List.iter
          (fun k ->
            match Obs.kind_of_name (Obs.kind_name k) with
            | Some k' when k' = k -> ()
            | _ -> Alcotest.failf "kind %s" (Obs.kind_name k))
          Obs.all_kinds);
    tc "json escapes and non-finite floats" (fun () ->
        let j =
          Obs.Json.(
            Obj
              [
                ("q", String "a\"b\\c\nd");
                ("nan", Float Float.nan);
                ("inf", Float Float.infinity);
              ])
        in
        let s = Obs.Json.to_string j in
        Alcotest.(check bool) "valid" true (json_ok s);
        Alcotest.(check bool) "nan is null" true (contains ~sub:"null" s);
        Alcotest.(check bool)
          "escaped quote" true
          (contains ~sub:{|a\"b|} s));
    tc "json parser round-trips the encoder" (fun () ->
        let j =
          Obs.Json.(
            Obj
              [
                ("s", String "a\"b\\c\nd\te");
                ("i", Int (-42));
                ("f", Float 1.5);
                ("big", Float 1.23456789e20);
                ("b", Bool true);
                ("nil", Null);
                ("l", List [ Int 1; Obj [ ("x", Int 2) ]; List [] ]);
                ("empty", Obj []);
              ])
        in
        let s = Obs.Json.to_string j in
        match Obs.Json.of_string s with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok j' ->
            Alcotest.(check bool) "tree equal" true (j = j');
            Alcotest.(check string)
              "reprint equal" s
              (Obs.Json.to_string j'));
    tc "json parser accepts whitespace and escapes" (fun () ->
        match
          Obs.Json.of_string
            " { \"k\" : [ 1 , 2.5 , \"\\u0041\\n\" , true , null ] } "
        with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok j ->
            Alcotest.(check bool)
              "tree" true
              Obs.Json.(
                j
                = Obj
                    [
                      ( "k",
                        List
                          [ Int 1; Float 2.5; String "A\n"; Bool true; Null ]
                      );
                    ]));
    tc "json parser rejects malformed input" (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted malformed %S" s)
          [
            "";
            "{";
            "{\"a\":}";
            "[1,]";
            "nul";
            "\"unterminated";
            "{\"a\":1} trailing";
            "{'a':1}";
            "+5";
          ]);
    tc "json member looks up object fields" (fun () ->
        let j = Obs.Json.(Obj [ ("a", Int 1); ("b", String "x") ]) in
        Alcotest.(check bool)
          "hit" true
          (Obs.Json.member "b" j = Some (Obs.Json.String "x"));
        Alcotest.(check bool) "miss" true (Obs.Json.member "c" j = None);
        Alcotest.(check bool)
          "non-object" true
          (Obs.Json.member "a" (Obs.Json.Int 3) = None));
    prop "h2d/d2h/fault bytes conserved between plan and spans" ~count:150
      Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        let d = P.declared_transfers cfg shape strat in
        close (Obs.bytes_of_kind obs Obs.H2d) d.P.h2d_bytes
        && close (Obs.bytes_of_kind obs Obs.D2h) d.P.d2h_bytes
        && close (Obs.bytes_of_kind obs Obs.Page_fault) d.P.fault_bytes);
    prop "every span that starts also stops" ~count:100 Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        Obs.unclosed obs = [] && Obs.span_count obs > 0);
    prop "span clock never runs backwards" ~count:100 Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        List.for_all
          (fun sp -> sp.Obs.span_stop >= sp.Obs.span_start)
          (Obs.spans obs));
    prop "profile json is valid for any generated schedule" ~count:80
      Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        let r = Runtime.Schedule_gen.schedule ~obs cfg shape strat in
        json_ok
          (Obs.Json.to_string (Machine.Trace.profile_json ~obs r)));
    prop "replayed programs close their spans too" ~count:30
      Gen.arb_size_seed
      (fun (n, seed) ->
        let prog =
          Minic.Parser.program_of_string_exn
            (Gen.streamable_program ~n ~seed)
        in
        let obs = Obs.create () in
        ignore (Runtime.Replay.of_program ~obs prog);
        Obs.unclosed obs = [] && Obs.count obs "runtime.launches" > 0);
    (* serve replays one cached simulate sink into every request of
       its key, so merging must neither mutate nor alias [src] *)
    prop "merging one src k times equals merging k fresh copies" ~count:200
      arb_merge_case
      (fun (src_ops, dst_ops, k) ->
        let src = build src_ops in
        let before = snapshot src in
        let reused = build dst_ops and fresh = build dst_ops in
        for _ = 1 to k do
          Obs.merge reused src;
          Obs.merge fresh (build src_ops)
        done;
        snapshot src = before && snapshot reused = snapshot fresh);
    tc "by_kind matches a per-kind fold bit for bit" (fun () ->
        (* the sink a serve daemon accumulates: one private sink per
           simulate, merged in order *)
        let acc = Obs.create () in
        List.iter
          (fun w ->
            List.iter
              (fun v ->
                let o = Obs.create () in
                ignore (Comp.simulate ~obs:o w v);
                Obs.merge acc o)
              [ Comp.Cpu_parallel; Comp.Mic_naive; Comp.Mic_optimized ])
          Workloads.Registry.all;
        (* the per-kind fold by_kind replaced: one walk of the
           newest-first span list per kind *)
        let newest_first = List.rev (Obs.spans acc) in
        let reference =
          List.filter_map
            (fun k ->
              let count, bytes, seconds =
                List.fold_left
                  (fun ((c, b, s) as a) (sp : Obs.span) ->
                    if sp.span_kind = k then
                      (c + 1, b +. sp.span_bytes,
                       s +. (sp.span_stop -. sp.span_start))
                    else a)
                  (0, 0., 0.) newest_first
              in
              if count = 0 then None
              else
                Some (k, count, Int64.bits_of_float bytes,
                      Int64.bits_of_float seconds))
            Obs.all_kinds
        in
        let got =
          List.map
            (fun (k, (s : Obs.kind_stat)) ->
              (k, s.ks_count, Int64.bits_of_float s.ks_bytes,
               Int64.bits_of_float s.ks_seconds))
            (Obs.by_kind acc)
        in
        Alcotest.(check bool) "several kinds" true (List.length got > 3);
        Alcotest.(check bool) "same stats" true (got = reference));
  ]
