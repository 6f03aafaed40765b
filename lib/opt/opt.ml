(** The optimizer mid-end: a pass pipeline over the typed MiniC AST.

    Pass order is fixed: constant folding/propagation first (literals
    enable branch elimination), then dead-code elimination to sweep up
    the dead branches, declarations and statements folding left behind.

    Both passes are gated by the effect analysis in [Minic.Ast]
    ([may_trap] / [has_call] / [writes]): a transformation that cannot
    prove an expression effect-free leaves it alone and counts the
    refusal.  With an [Obs] sink attached, each pass records
    [opt.<pass>.fired] and [opt.<pass>.blocked.<reason>] counters;
    with none, the pipeline is silent and allocation-light, which is
    what the differential checker uses.

    The program must already typecheck: folding consults static types
    (through [Minic.Typecheck.type_of_expr]) before it applies an
    integer identity such as [e + 0]. *)

type pass = Fold | Dce

let all_passes = [ Fold; Dce ]
let pass_name = function Fold -> "fold" | Dce -> "dce"

let pass_of_name = function
  | "fold" -> Some Fold
  | "dce" -> Some Dce
  | _ -> None

let pass_names = List.map pass_name all_passes

let apply ctx prog = function
  | Fold -> Constfold.run ctx prog
  | Dce -> Dce.run ctx prog

(** Run the pipeline.  [passes] defaults to {!all_passes} in pipeline
    order; an explicit list runs exactly those passes in the order
    given. *)
let run ?obs ?(passes = all_passes) prog =
  let ctx = Effects.make_ctx ?obs prog in
  List.fold_left (apply ctx) prog passes

(** Render the [opt.*] counters of a sink as the [--report] table. *)
let report obs =
  let rows =
    List.filter
      (fun (k, _) -> String.length k >= 4 && String.equal (String.sub k 0 4) "opt.")
      (Obs.counters obs)
  in
  if rows = [] then "opt: nothing fired, nothing blocked"
  else
    let width =
      List.fold_left (fun w (k, _) -> max w (String.length k)) 0 rows
    in
    rows
    |> List.map (fun (k, v) -> Printf.sprintf "%-*s %6d" width k v)
    |> String.concat "\n"
