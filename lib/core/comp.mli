(** COMP: compiler optimizations for manycore processors — the public
    driver.

    Ties together the MiniC front end, the analyses, the three
    source-to-source optimizations of the paper (data streaming,
    regularization, the segmented shared-memory mechanism) and the
    machine simulator.

    {[
      let prog = Minic.Parser.program_of_string_exn source in
      let optimized, report = Comp.optimize prog in
      print_string (Minic.Pretty.program_to_string optimized);
      (* timing on the simulated host + MIC *)
      let w = Workloads.Registry.find_exn "blackscholes" in
      Printf.printf "%.3f s\n" (Comp.simulate w Comp.Mic_optimized)
    ]} *)

(** {1 Source-to-source optimization} *)

(** What the pass pipeline did to a program. *)
type applied = {
  offloads_inserted : int;  (** Apricot-style offload insertion *)
  shared_rewritten : int;
      (** pointer-based offloads rewritten to translated DMA
          (Section V as a source-to-source pass) *)
  regularized : (string * Transforms.Regularize.kind) list;
  merged : int;  (** offload-merging sites rewritten *)
  streamed : int;  (** loops rewritten for data streaming *)
  vectorized : int;  (** loops annotated [omp simd] *)
  resident : int;
      (** transfers elided or hoisted by the inter-offload residency
          pass *)
}

val pp_applied : Format.formatter -> applied -> unit

(** Pipeline passes, in their fixed order. *)
type pass =
  | Insert_offload
  | Shared_memory
  | Regularization
  | Merge_offloads
  | Data_streaming
  | Vectorization

val all_passes : pass list
val pass_name : pass -> string
val pass_of_name : string -> pass option

val optimize :
  ?opt:Opt.pass list ->
  ?obs:Obs.t ->
  ?residency:bool ->
  ?passes:pass list ->
  ?nblocks:int ->
  ?memory:Transforms.Streaming.memory ->
  Minic.Ast.program ->
  Minic.Ast.program * applied
(** The pipeline: offload insertion -> shared memory -> regularization
    -> offload merging -> data streaming -> vectorization annotation.
    The order matters: regularization enables streaming (Section IV),
    merging must see the individual offloads before streaming rewrites
    them, and the shared-memory rewrite must pull pointer-bearing
    arrays out of the clauses before streaming could slice them.
    [passes] restricts the pipeline; the relative order stays fixed.

    [opt] runs the classic optimizer mid-end ({!Opt.run}) with the
    given passes {e before} the source-to-source pipeline, so the
    paper's transforms see folded bounds and no dead code; it is
    off by default.  With [obs], the mid-end records its
    [opt.<pass>.fired] / [opt.<pass>.blocked.<reason>] counters there
    (rendered by {!Opt.report}).

    [residency] runs the inter-offload data-residency pass
    ({!Residency.transform}) {e after} the pipeline, eliding transfers
    whose sections are already device-resident and hoisting
    loop-invariant transfers; counters land under [residency.*] /
    [clause.*] (rendered by {!Residency.report}).  Off by default. *)

(** {1 Applicability analysis (Table II)} *)

type applicability = {
  streaming : bool;
  merging : bool;
  regularization : Transforms.Regularize.kind list;
  shared_memory : bool;
}

val analyze : Workloads.Workload.t -> applicability
(** Which optimizations apply to a workload, decided by the real
    analyses running on its kernel source.  (Shared memory is an
    allocation-site property carried by the workload's shape.) *)

(** {1 Simulation} *)

type variant =
  | Cpu_parallel  (** the original multicore OpenMP version *)
  | Mic_naive  (** pragmas added, nothing else (Figure 1) *)
  | Mic_optimized  (** all applicable COMP optimizations *)
  | Mic_with of Runtime.Plan.strategy * Runtime.Plan.shape
      (** explicit strategy/shape, for ablations *)

val default_nblocks : int

val default_seg_bytes : int
(** 256 MB — the granularity the paper observes gives ferret 7.81x. *)

val plan_of_variant :
  Workloads.Workload.t ->
  applicability ->
  variant ->
  Runtime.Plan.strategy * Runtime.Plan.shape
(** The execution strategy a variant uses, and the shape it runs
    against (regularization changes the shape: packed transfers,
    different kernel behaviour). *)

val simulate :
  ?obs:Obs.t -> ?cfg:Machine.Config.t -> Workloads.Workload.t -> variant -> float
(** Whole-application time on the simulated machine. *)

val simulate_region :
  ?obs:Obs.t -> ?cfg:Machine.Config.t -> Workloads.Workload.t -> variant -> float
(** Offload-region time only (no host serial part). *)

val simulate_recovered :
  ?obs:Obs.t ->
  ?cfg:Machine.Config.t ->
  Workloads.Workload.t ->
  variant ->
  float * Runtime.Schedule_gen.recovered
(** Whole-application time with [cfg.fault] injected and device death
    absorbed by the CPU fallback when the policy allows it.  Without
    [cpu_fallback] an unrecoverable death escapes as
    {!Fault.Device_dead}. *)

val schedule :
  ?obs:Obs.t ->
  ?cfg:Machine.Config.t ->
  Workloads.Workload.t ->
  variant ->
  Machine.Engine.result
(** With [?obs], every counter/span the runtime and engine record lands
    in the given sink — the substrate of [compc --profile]. *)

val device_bytes : Workloads.Workload.t -> variant -> float
(** Device memory footprint of a variant (Figure 13). *)

(** {1 Diagnostics} *)

val explain : Minic.Ast.program -> string
(** Per-region account of what the compiler decided and why — the
    [compc analyze] output. *)
