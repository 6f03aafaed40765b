(** Shared infrastructure for the optimizer passes: the per-run
    context (observability sink, global type environment), scope-aware
    typing, and the effect queries the legality checks are built on
    (re-exported from [Minic.Ast]).

    Both passes are gated by the same three questions — may this
    expression trap ([Ast.may_trap]), does it call ([Ast.has_call]),
    and what does this region write ([Ast.writes]) — so a pass never
    deletes an effect it cannot prove absent. *)

open Minic.Ast
module SS = Set.Make (String)

type ctx = { obs : Obs.t option; genv : Minic.Typecheck.env }

let make_ctx ?obs prog = { obs; genv = Minic.Typecheck.initial_env prog }

(** Per-pass counters rendered by [--report]: [opt.<pass>.fired] and
    [opt.<pass>.blocked.<reason>]. *)
let fired ?(by = 1) ctx pass =
  Option.iter (fun o -> Obs.incr ~by o ("opt." ^ pass ^ ".fired")) ctx.obs

let blocked ctx pass reason =
  Option.iter
    (fun o -> Obs.incr o (Printf.sprintf "opt.%s.blocked.%s" pass reason))
    ctx.obs

(** Type of [e] under the function-local scope [vars] (innermost
    first, on top of the globals); [None] when it does not type. *)
let type_of ctx vars e =
  let env = { ctx.genv with Minic.Typecheck.vars = vars @ ctx.genv.vars } in
  match Minic.Typecheck.type_of_expr env e with
  | t -> Some t
  | exception Minic.Typecheck.Type_error _ -> None

(** Variables whose address is taken anywhere in a block: writes
    through pointers may target them, so no pass may assume their
    value is stable. *)
let addr_taken block =
  let of_expr acc e =
    fold_expr
      (fun acc e -> match e with Addr (Var v) -> SS.add v acc | _ -> acc)
      acc e
  in
  fold_stmts
    (fun acc s ->
      let exprs =
        match s with Spragma (p, _) -> pragma_exprs p | _ -> stmt_exprs s
      in
      List.fold_left of_expr acc exprs)
    SS.empty block

(** Does [block] read variable [v] anywhere — in an expression
    (including array-size expressions of declarations, which
    [stmt_exprs] omits), or by name in an offload data clause? *)
let block_reads_var v block =
  let spec_reads (s : offload_spec) =
    List.exists
      (fun sec ->
        String.equal sec.arr v
        || match sec.into with Some (d, _) -> String.equal d v | None -> false)
      (s.ins @ s.outs @ s.inouts)
    || List.mem v s.nocopy || List.mem v s.translate
  in
  fold_stmts
    (fun acc s ->
      acc
      ||
      let exprs =
        match s with
        | Spragma (p, _) -> pragma_exprs p
        | Sdecl (Tarray (_, Some n), _, init) -> n :: Option.to_list init
        | _ -> stmt_exprs s
      in
      List.exists (fun e -> List.mem v (expr_vars e)) exprs
      ||
      match s with
      | Spragma ((Offload sp | Offload_transfer sp), _) -> spec_reads sp
      | _ -> false)
    false block

(** Map [f] over every function body of the program. *)
let map_bodies f prog =
  map_funcs (fun fn -> { fn with body = f fn fn.body }) prog
