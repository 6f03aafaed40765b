(** Roofline-style timing model for loop kernels on the host and the
    device, plus PCIe transfer times.  All the experiment figures are
    ratios of times produced here, scheduled by {!Engine}. *)

type kernel = {
  flops_per_iter : float;  (** arithmetic work per loop iteration *)
  mem_bytes_per_iter : float;  (** device/host memory traffic per iteration *)
  vectorizable : bool;  (** can the compiler use the 512-bit units? *)
  locality : float;
      (** 0..1; fraction of memory traffic served by cache.  Irregular
          accesses have low locality, which both lowers effective
          bandwidth and (on MIC) hurts more because per-core bandwidth
          is smaller. *)
  serial_frac : float;  (** Amdahl: fraction of work that cannot be
                            parallelized *)
  mic_derate : float;
      (** 0..1; fraction of the device's model peak this kernel
          actually reaches.  Captures per-kernel effects the roofline
          does not see — in-order pipelines stalling on transcendental
          sequences, masked gathers, load imbalance across 200 threads.
          This is the per-benchmark calibration knob; values are
          recorded in each workload module. *)
}

let default_kernel =
  {
    flops_per_iter = 10.0;
    mem_bytes_per_iter = 8.0;
    vectorizable = true;
    locality = 0.9;
    serial_frac = 0.0;
    mic_derate = 1.0;
  }

(* effective bandwidth under imperfect locality: misses pay full trips *)
let effective_bw bw_gbs locality = bw_gbs *. 1e9 *. (0.15 +. (0.85 *. locality))

let compute_time ~peak_flops ~single_flops ~bw ~(k : kernel) ~iters =
  let it = float_of_int iters in
  let flops = k.flops_per_iter *. it in
  let bytes = k.mem_bytes_per_iter *. it in
  let par = (1.0 -. k.serial_frac) *. flops /. peak_flops in
  let ser = k.serial_frac *. flops /. single_flops in
  let mem = bytes /. bw in
  Float.max (par +. ser) mem

(** Device time for [iters] iterations of kernel [k]. *)
let mic_time (cfg : Config.t) (k : kernel) ~iters =
  let vectorized = k.vectorizable in
  let peak = Config.mic_peak_flops cfg.mic ~vectorized *. k.mic_derate in
  let single =
    (* one in-order MIC thread, no SIMD for the serial part *)
    cfg.mic.freq_ghz *. 1e9 *. cfg.mic.flops_per_cycle /. 2.0
  in
  let bw = effective_bw cfg.mic.mem_bw_gbs k.locality in
  compute_time ~peak_flops:peak ~single_flops:single ~bw ~k ~iters

(** Host time for the same loop, on [cpu.threads_used] threads.  Host
    vectorization is assumed whenever device vectorization is possible
    (256-bit units, so the gain is half the device's). *)
let cpu_time (cfg : Config.t) (k : kernel) ~iters =
  let peak = Config.cpu_peak_flops cfg.cpu ~vectorized:k.vectorizable in
  let single = cfg.cpu.freq_ghz *. 1e9 *. cfg.cpu.flops_per_cycle in
  let bw = effective_bw cfg.cpu.mem_bw_gbs k.locality in
  compute_time ~peak_flops:peak ~single_flops:single ~bw ~k ~iters

(** Sequential host code executed on one MIC thread (what offload
    merging trades for fewer launches). *)
let mic_serial_time (cfg : Config.t) ~cpu_seconds =
  cpu_seconds *. cfg.mic.serial_slowdown

type direction = H2d | D2h

let kind_of_direction = function H2d -> Obs.H2d | D2h -> Obs.D2h

(* counter and histogram names per direction, built once *)
let transfer_names =
  Obs.per_kind (fun k ->
      ("cost.transfers." ^ Obs.kind_name k, "xfer_bytes." ^ Obs.kind_name k))

(** One DMA transfer of [bytes] over PCIe.  With [?obs], each model
    evaluation is counted ([cost.transfers.h2d]/[.d2h]) and the
    requested size recorded in a [xfer_bytes.*] histogram — the
    per-transfer size distribution of Table III.  [?dev] names the
    owning device of a heterogeneous fleet: its [sc_bw] scale
    multiplies the link bandwidth (latency is unaffected). *)
let transfer_time ?obs ?(dev = 0) (cfg : Config.t) dir ~bytes =
  (match obs with
  | None -> ()
  | Some o ->
      let counter, histogram = transfer_names (kind_of_direction dir) in
      Obs.incr o counter;
      Obs.observe o histogram (Float.max 0. bytes));
  let bw =
    match dir with
    | H2d -> cfg.pcie.bw_h2d_gbs
    | D2h -> cfg.pcie.bw_d2h_gbs
  in
  let bw = bw *. (Config.scale_for cfg dev).Config.sc_bw in
  if bytes <= 0. then 0. else cfg.pcie.latency_s +. (bytes /. (bw *. 1e9))

(** Kernel launch overhead (the K of Section III-B); with [?obs] each
    evaluation bumps [cost.launches] — the "kernel launches" column. *)
let launch_time ?obs (cfg : Config.t) =
  (match obs with None -> () | Some o -> Obs.incr o "cost.launches");
  cfg.mic.launch_overhead_s

let signal_time ?obs (cfg : Config.t) =
  (match obs with None -> () | Some o -> Obs.incr o "cost.signals");
  cfg.mic.signal_cost_s
