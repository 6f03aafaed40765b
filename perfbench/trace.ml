(* In-memory span recorder for the traced run.

   A span is recorded around each call the benchmark makes into a
   layer's public function.  Spans of one op share the op's id and
   nest through [parent]; a layer's self time is its span minus the
   part covered by its children.  Every op gets its own recorder, so
   ops running on pool domains never share mutable state; the caller
   merges finished ops into one list, which is aggregated per layer
   and written out as Chrome trace-event JSON. *)

type span = {
  id : int;
  parent : int;  (** [-1] for the op's root span *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
  tid : int;  (** domain that ran it *)
}

type op = {
  op_id : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable spans : span list;
  mutable counts : (string * float) list;
      (** work counted at the same boundaries as the spans *)
}

let next_id = Atomic.make 0
let next_op = Atomic.make 0
let now = Unix.gettimeofday

let new_op () =
  { op_id = Atomic.fetch_and_add next_op 1; stack = []; spans = []; counts = [] }

let count tr name v =
  match tr with Some o -> o.counts <- (name, v) :: o.counts | None -> ()

let parent o = match o.stack with p :: _ -> p | [] -> -1

let push o ~id ~parent name t0 t1 =
  o.spans <-
    { id; parent; op = o.op_id; name; t0; t1; tid = (Domain.self () :> int) }
    :: o.spans

(* [with_span tr name f] runs [f] inside a span when tracing is on,
   and is just [f ()] otherwise. *)
let with_span tr name f =
  match tr with
  | None -> f ()
  | Some o ->
      let id = Atomic.fetch_and_add next_id 1 and parent = parent o in
      o.stack <- id :: o.stack;
      let t0 = now () in
      let finish () =
        o.stack <- List.tl o.stack;
        push o ~id ~parent name t0 (now ())
      in
      Fun.protect ~finally:finish f

(* A leaf span whose name is known only once the call returned. *)
let add_span tr name ~t0 ~t1 =
  match tr with
  | None -> ()
  | Some o -> push o ~id:(Atomic.fetch_and_add next_id 1) ~parent:(parent o) name t0 t1

(* Per-layer totals over a set of spans: calls and self seconds. *)
type layer = { calls : int; self_s : float }

let layers spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.
        in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.
      in
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; self_s = 0. }
      in
      Hashtbl.replace tbl s.name { calls = l.calls + 1; self_s = l.self_s +. self })
    spans;
  tbl

let layer tbl name =
  Option.value (Hashtbl.find_opt tbl name) ~default:{ calls = 0; self_s = 0. }

(* Mean self time per call, in microseconds. *)
let mean_us tbl name =
  let l = layer tbl name in
  if l.calls = 0 then 0. else 1e6 *. l.self_s /. float_of_int l.calls

(* Chrome trace-event JSON ("X" complete events, microsecond
   timestamps), which Perfetto and chrome://tracing open. *)
let write_chrome path spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}"
        s.name s.tid
        (1e6 *. (s.t0 -. origin))
        (1e6 *. (s.t1 -. s.t0))
        s.op s.id s.parent)
    (List.sort (fun a b -> compare a.t0 b.t0) spans);
  output_string oc "]}\n";
  close_out oc
