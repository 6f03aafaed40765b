(* The serve daemon: protocol (typed errors, never a crash), admission
   control, budgets, the request-shared compile cache, and the
   determinism contract — the response stream is byte-identical at any
   pool width because admission is serial, batch cuts are fixed, and
   emission is strictly in request order. *)

open Helpers
module J = Obs.Json

let cfg ?jobs ?(queue = 64) ?(batch = 4) ?(max_fuel = 10_000_000) ?max_time
    () =
  { Serve.jobs; queue; batch; max_fuel; max_time }

(* Feed a scripted session; responses come back in request order. *)
let drive config lines =
  let t = Serve.create ~config () in
  let rs = List.concat_map (Serve.handle_line t) lines in
  let tail = Serve.finish t in
  (t, rs @ tail)

let src_print n =
  Printf.sprintf "int main(void) { print_int(%d); return 0; }" n

let src_loop = "int main(void) { while (1) {} return 0; }"

let req_run ?opts src =
  let opts =
    match opts with None -> "" | Some o -> Printf.sprintf ",\"opts\":%s" o
  in
  Printf.sprintf "{\"cmd\":\"run\",\"src\":%s%s}"
    (J.to_string (J.String src))
    opts

let parse_response line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable response %S: %s" line e

let get name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (J.to_string j)

let error_code j =
  match J.member "error" j with Some (J.String s) -> Some s | _ -> None

(* The seeded request mix used by the determinism tests: repeated
   sources, distinct sources, malformed lines, over-budget programs,
   an optimize, and interleaved stats barriers. *)
let mixed_session =
  [
    req_run (src_print 1);
    req_run (src_print 2);
    req_run (src_print 1);
    "this is not json";
    req_run ~opts:"{\"fuel\":50}" src_loop;
    req_run (src_print 3);
    "{\"cmd\":\"levitate\"}";
    "{\"cmd\":\"run\",\"src\":\"int main(void) { return }\"}";
    req_run (src_print 1);
    "{\"cmd\":\"stats\"}";
    req_run (src_print 2);
    req_run (src_print 4);
    "{\"cmd\":\"simulate\",\"bench\":\"blackscholes\"}";
    "{\"cmd\":\"simulate\",\"bench\":\"nope\"}";
    req_run (src_print 1);
    "{\"cmd\":\"stats\"}";
    "{\"cmd\":\"shutdown\"}";
  ]

let stats_req = "{\"cmd\":\"stats\"}"

let variant_names = [ "cpu"; "mic-naive"; "mic-optimized" ]

let variant_of_name = function
  | "cpu" -> Comp.Cpu_parallel
  | "mic-naive" -> Comp.Mic_naive
  | _ -> Comp.Mic_optimized

let req_simulate bench variant =
  Printf.sprintf
    "{\"cmd\":\"simulate\",\"bench\":%S,\"opts\":{\"variant\":%S}}" bench
    variant

(* Every (bench, variant name) key the daemon can simulate. *)
let sim_keys =
  List.concat_map
    (fun b -> List.map (fun v -> (b, v)) variant_names)
    Workloads.Registry.names

(* A seeded session over all 36 simulate keys: three rounds of the keys
   in LCG-shuffled order, with runs, an unknown bench and stats probes
   mixed in, so every key is first a miss and then hit twice. *)
let simulate_session ~seed =
  let state = ref seed in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let round () =
    let a = Array.of_list sim_keys in
    for i = Array.length a - 1 downto 1 do
      let j = rand (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    List.concat_map
      (fun (b, v) ->
        match rand 6 with
        | 0 -> [ req_run (src_print (rand 3)); req_simulate b v ]
        | 1 -> [ "{\"cmd\":\"simulate\",\"bench\":\"nope\"}"; req_simulate b v ]
        | _ -> [ req_simulate b v ])
      (Array.to_list a)
  in
  let r1 = round () in
  let r2 = round () in
  let r3 = round () in
  r1 @ (stats_req :: r2) @ (stats_req :: r3)

(* A response without its leading ["id"] member (ids here are ints). *)
let drop_id line =
  match String.index_opt line ',' with
  | Some i -> String.sub line i (String.length line - i)
  | None -> Alcotest.failf "response without fields: %s" line

let is_cmd cmd line =
  J.member "cmd" (parse_response line) = Some (J.String cmd)

let suite =
  [
    tc "response stream is byte-identical at jobs 1 and 2" (fun () ->
        let _, r1 = drive (cfg ~jobs:1 ()) mixed_session in
        let _, r2 = drive (cfg ~jobs:2 ()) mixed_session in
        Alcotest.(check (list string)) "jobs 1 = jobs 2" r1 r2;
        (* a different batch size changes only sequencing internals:
           batch cuts move what a stats barrier sees of the merged sink
           (inline/pooled batch counts), never another response's
           bytes, and emission order is pinned *)
        let session = simulate_session ~seed:5 @ mixed_session in
        let non_stats ~jobs batch =
          let _, rs = drive (cfg ~jobs ~batch ()) session in
          List.filter (fun l -> not (is_cmd "stats" l)) rs
        in
        let b1 = non_stats ~jobs:2 1 in
        Alcotest.(check int)
          "one response per non-stats request"
          (List.length (List.filter (fun l -> l <> stats_req) session))
          (List.length b1);
        List.iter
          (fun (jobs, batch) ->
            Alcotest.(check (list string))
              (Printf.sprintf "batch 1 = jobs %d batch %d" jobs batch)
              b1 (non_stats ~jobs batch))
          [ (2, 3); (2, 8); (4, 3) ]);
    tc "a cached simulate answers like a fresh daemon and a direct run"
      (fun () ->
        let session = simulate_session ~seed:11 in
        let _, rs = drive (cfg ~jobs:2 ~batch:8 ()) session in
        let checked = ref 0 in
        List.iter2
          (fun line resp ->
            if is_cmd "simulate" resp then begin
              incr checked;
              let _, fresh = drive (cfg ~jobs:1 ~batch:1 ()) [ line ] in
              Alcotest.(check string)
                (line ^ ": same as a fresh daemon")
                (drop_id (List.hd fresh)) (drop_id resp);
              (* and both carry a direct simulate's seconds (as
                 printed) and counters *)
              let j = parse_response resp in
              let bench, variant =
                match (get "bench" j, get "variant" j) with
                | J.String b, J.String v -> (b, v)
                | _ -> Alcotest.fail "bench/variant not strings"
              in
              let o = Obs.create () in
              let seconds =
                Comp.simulate ~obs:o
                  (Workloads.Registry.find_exn bench)
                  (variant_of_name variant)
              in
              Alcotest.(check string)
                (line ^ ": seconds")
                (J.to_string (J.Float seconds))
                (J.to_string (get "seconds" j));
              let own =
                match get "counters" j with
                | J.Obj kvs ->
                    List.filter
                      (fun (k, _) ->
                        not (String.starts_with ~prefix:"serve." k))
                      kvs
                | _ -> Alcotest.fail "counters not an object"
              in
              Alcotest.(check string)
                (line ^ ": counters")
                (J.to_string
                   (J.Obj
                      (List.map (fun (k, v) -> (k, J.Int v)) (Obs.counters o))))
                (J.to_string (J.Obj own))
            end)
          (List.filter (fun l -> l <> stats_req) session)
          (List.filter (fun l -> not (is_cmd "stats" l)) rs);
        Alcotest.(check int) "every key three times" (3 * 36) !checked);
    tc "simulate hits and misses depend only on the request stream"
      (fun () ->
        let session = simulate_session ~seed:3 in
        let sims = List.length sim_keys in
        let counts jobs batch =
          let t, _ = drive (cfg ~jobs ~batch ()) session in
          (Serve.simulate_hits t, Serve.simulate_misses t)
        in
        let h, m = counts 1 1 in
        Alcotest.(check int) "one miss per key, 36 in all" sims m;
        Alcotest.(check int) "the rest are hits" (2 * sims) h;
        List.iter
          (fun (jobs, batch) ->
            Alcotest.(check (pair int int))
              (Printf.sprintf "jobs %d batch %d" jobs batch)
              (h, m) (counts jobs batch))
          [ (1, 3); (1, 8); (2, 1); (2, 3); (2, 8); (4, 3) ]);
    tc "pooled batches replay one cached simulate on several domains"
      (fun () ->
        (* two checks lift a batch's estimate past the spawn threshold
           (24 x 1,000 statements each before any serve.work is seen),
           so every batch of 8 here runs on the pool with six
           requests for one key replaying the same cached sink *)
        let check n =
          Printf.sprintf "{\"cmd\":\"check\",\"src\":%s}"
            (J.to_string (J.String (src_print n)))
        in
        let sims = List.init 6 (fun _ -> req_simulate "kmeans" "mic-optimized") in
        let session =
          (check 1 :: check 2 :: sims)
          @ (check 3 :: check 4 :: sims)
          @ [ stats_req ]
        in
        let run jobs = drive (cfg ~jobs ~batch:8 ()) session in
        let t1, r1 = run 1 in
        Alcotest.(check (option int)) "both batches pooled" (Some 2)
          (List.assoc_opt "serve.pooled_batches"
             (Obs.counters (Serve.obs t1)));
        List.iter
          (fun jobs ->
            let _, r = run jobs in
            Alcotest.(check (list string))
              (Printf.sprintf "jobs 1 = jobs %d" jobs)
              r1 r)
          [ 2; 4 ];
        (* and the simulates answer as they do one request per batch *)
        let _, inline = drive (cfg ~jobs:1 ~batch:1 ()) session in
        let simulates = List.filter (is_cmd "simulate") in
        Alcotest.(check (list string)) "same as batch 1" (simulates inline)
          (simulates r1));
    tc "responses arrive in request order with ids echoed" (fun () ->
        let lines =
          [
            "{\"cmd\":\"run\",\"id\":\"alpha\",\"src\":"
            ^ J.to_string (J.String (src_print 7))
            ^ "}";
            "bogus";
            "{\"cmd\":\"run\",\"id\":42,\"src\":"
            ^ J.to_string (J.String (src_print 8))
            ^ "}";
          ]
        in
        let _, rs = drive (cfg ~jobs:2 ()) lines in
        let ids =
          List.map (fun l -> J.to_string (get "id" (parse_response l))) rs
        in
        Alcotest.(check (list string))
          "ids in order"
          [ "\"alpha\""; "2"; "42" ]
          ids);
    tc "cache hits climb across repeated sources" (fun () ->
        let t = Serve.create ~config:(cfg ~jobs:1 ~batch:1 ()) () in
        let hit_counts =
          List.map
            (fun n ->
              ignore (Serve.handle_line t (req_run (src_print n)));
              Serve.cache_hits t)
            [ 1; 2; 1; 1; 2; 3; 1 ]
        in
        Alcotest.(check (list int))
          "hits after each request"
          [ 0; 0; 1; 2; 3; 3; 4 ]
          hit_counts;
        Alcotest.(check int) "three distinct sources" 3
          (Serve.cache_misses t);
        (* negative caching: a malformed source misses once, hits after *)
        let bad = "{\"cmd\":\"run\",\"src\":\"int main(void) { return }\"}" in
        ignore (Serve.handle_line t bad);
        let m1 = Serve.cache_misses t in
        ignore (Serve.handle_line t bad);
        Alcotest.(check int) "bad source cached too" m1
          (Serve.cache_misses t);
        Alcotest.(check int) "as a hit" 5 (Serve.cache_hits t));
    tc "queue_full rejects beyond the admission bound" (fun () ->
        let lines =
          List.map (fun n -> req_run (src_print n)) [ 1; 2; 3; 4; 5 ]
        in
        let _, rs = drive (cfg ~jobs:1 ~queue:2 ~batch:8 ()) lines in
        let codes = List.map (fun l -> error_code (parse_response l)) rs in
        Alcotest.(check (list (option string)))
          "first two admitted, rest rejected"
          [
            None; None; Some "queue_full"; Some "queue_full";
            Some "queue_full";
          ]
          codes);
    tc "fuel budget kills runaway requests" (fun () ->
        let _, rs =
          drive
            (cfg ~jobs:1 ())
            [ req_run ~opts:"{\"fuel\":100}" src_loop ]
        in
        let j = parse_response (List.hd rs) in
        Alcotest.(check (option string))
          "code" (Some "budget_exhausted") (error_code j);
        match J.member "serve.fuel_killed" (get "counters" j) with
        | Some (J.Int 1) -> ()
        | _ -> Alcotest.fail "expected serve.fuel_killed=1 in counters");
    tc "max-fuel caps a request's own budget" (fun () ->
        let _, rs =
          drive
            (cfg ~jobs:1 ~max_fuel:100 ())
            [ req_run ~opts:"{\"fuel\":999999999}" src_loop ]
        in
        Alcotest.(check (option string))
          "code" (Some "budget_exhausted")
          (error_code (parse_response (List.hd rs))));
    tc "max-time converts to fuel" (fun () ->
        (* 1e-4 s * 2e6 stmt/s = 200 statements: plenty for print_int,
           fatal for the infinite loop *)
        let config = cfg ~jobs:1 ~max_time:0.0001 () in
        let _, rs = drive config [ req_run (src_print 5); req_run src_loop ] in
        match List.map parse_response rs with
        | [ ok; killed ] ->
            Alcotest.(check (option string)) "small run fine" None
              (error_code ok);
            Alcotest.(check (option string))
              "loop killed" (Some "budget_exhausted") (error_code killed)
        | _ -> Alcotest.fail "expected two responses");
    tc "malformed input yields typed errors, never a crash" (fun () ->
        let cases =
          [
            ("", None (* blank: ignored *));
            ("   ", None);
            ("{", Some "bad_json");
            ("[1,2,3]", Some "bad_request");
            ("\"just a string\"", Some "bad_request");
            ("{\"no_cmd\":true}", Some "bad_request");
            ("{\"cmd\":7}", Some "bad_request");
            ("{\"cmd\":\"levitate\"}", Some "unknown_cmd");
            ("{\"cmd\":\"run\"}", Some "bad_request");
            ("{\"cmd\":\"run\",\"src\":17}", Some "bad_request");
            ( "{\"cmd\":\"run\",\"src\":\"int main(void) { return }\"}",
              Some "parse_error" );
            ( "{\"cmd\":\"run\",\"src\":\"int main(void) { float a[4]; \
               a[0] = a + 1; return 0; }\"}",
              Some "type_error" );
            ("{\"cmd\":\"run\",\"bench\":\"nope\"}", Some "unknown_benchmark");
            ( "{\"cmd\":\"run\",\"src\":\"x\",\"bench\":\"y\"}",
              Some "bad_request" );
            ("{\"cmd\":\"run\",\"src\":\"x\",\"opts\":3}", Some "bad_request");
            ( "{\"cmd\":\"run\",\"src\":\"x\",\"opts\":{\"fuel\":\"lots\"}}",
              Some "bad_request" );
            ( "{\"cmd\":\"run\",\"src\":\"x\",\"opts\":{\"fuel\":0}}",
              Some "bad_request" );
            ( "{\"cmd\":\"simulate\",\"bench\":\"blackscholes\",\"opts\":{\"variant\":\"warp\"}}",
              Some "bad_request" );
            ("{\"cmd\":\"simulate\",\"src\":\"x\"}", Some "bad_request");
          ]
        in
        let t = Serve.create ~config:(cfg ~jobs:1 ~batch:1 ()) () in
        List.iter
          (fun (line, expected) ->
            let rs = Serve.handle_line t line in
            match expected with
            | None ->
                Alcotest.(check int)
                  (Printf.sprintf "%S ignored" line)
                  0 (List.length rs)
            | Some code ->
                (match rs with
                | [ r ] ->
                    Alcotest.(check (option string))
                      (Printf.sprintf "%S -> %s" line code)
                      (Some code)
                      (error_code (parse_response r))
                | _ ->
                    Alcotest.failf "%S: expected exactly one response" line))
          cases;
        (* and the server still works afterwards *)
        match Serve.handle_line t (req_run (src_print 9)) with
        | [ r ] ->
            let j = parse_response r in
            Alcotest.(check bool)
              "still serving" true
              (J.member "ok" j = Some (J.Bool true))
        | _ -> Alcotest.fail "server wedged after malformed input");
    tc "stats snapshots merge deterministically" (fun () ->
        let session =
          [
            req_run (src_print 1);
            req_run (src_print 1);
            "{\"cmd\":\"stats\"}";
            req_run (src_print 1);
            "{\"cmd\":\"stats\"}";
          ]
        in
        let inspect config =
          let _, rs = drive config session in
          List.filter_map
            (fun l ->
              let j = parse_response l in
              match J.member "cache" j with
              | Some c -> Some (get "hits" c, get "misses" c)
              | None -> None)
            rs
        in
        let s1 = inspect (cfg ~jobs:1 ()) in
        let s2 = inspect (cfg ~jobs:2 ()) in
        Alcotest.(check bool) "same snapshots" true (s1 = s2);
        match s1 with
        | [ (J.Int h1, J.Int m1); (J.Int h2, J.Int m2) ] ->
            Alcotest.(check int) "one miss total" 1 m1;
            Alcotest.(check int) "misses stable" 1 m2;
            Alcotest.(check bool) "hits strictly climb" true (h2 > h1)
        | _ -> Alcotest.fail "expected two stats snapshots with int fields");
    tc "check requests run the differential oracle" (fun () ->
        let src =
          {|int main(void) {
              float a[8];
              float b[8];
              for (i = 0; i < 8; i++) { a[i] = (float)i; }
              #pragma omp parallel for
              for (i = 0; i < 8; i++) { b[i] = a[i] + 1.0; }
              print_float(b[3]);
              return 0;
            }|}
        in
        let _, rs =
          drive
            (cfg ~jobs:1 ())
            [
              Printf.sprintf "{\"cmd\":\"check\",\"src\":%s}"
                (J.to_string (J.String src));
            ]
        in
        let j = parse_response (List.hd rs) in
        Alcotest.(check bool)
          "ok" true
          (J.member "ok" j = Some (J.Bool true));
        Alcotest.(check bool)
          "oracle passed" true
          (J.member "pass" j = Some (J.Bool true));
        match get "reports" j with
        | J.List (_ :: _) -> ()
        | _ -> Alcotest.fail "expected non-empty reports");
    tc "shutdown stops the server and reports served count" (fun () ->
        let t = Serve.create ~config:(cfg ~jobs:1 ()) () in
        ignore (Serve.handle_line t (req_run (src_print 1)));
        Alcotest.(check bool) "running" false (Serve.shutdown_requested t);
        let rs = Serve.handle_line t "{\"cmd\":\"shutdown\"}" in
        Alcotest.(check bool) "stopped" true (Serve.shutdown_requested t);
        (* the shutdown barrier flushed the pending run first *)
        Alcotest.(check int) "both responses out" 2 (List.length rs));
  ]
