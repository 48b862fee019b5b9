(** Kernel benchmarks: reference (pre-tiling two-row GEMM, workspace arena
    off) vs tiled+packed OCaml GEMM (arena on), OCaml tiled vs SIMD kernels,
    and float32 vs int8/student forwards on the fastest kernels; same
    process, same machine.

    This is the code path behind both [bench/main.exe -- kernels] and
    [cachebox bench]; CI compares the measured {!result.speedup} values
    against the committed [BENCH_KERNELS.json] baseline. Speedups — not
    absolute times — are the stable, machine-portable quantity. *)

type result = {
  name : string;
  domains : int;  (** Dpool lane count the benchmark ran under *)
  ref_s : float;  (** best-of-N seconds, reference configuration *)
  tiled_s : float;  (** best-of-N seconds, production configuration *)
  speedup : float;  (** [ref_s /. tiled_s] *)
  max_rel_err : float option;
      (** scaled max deviation between the two configurations' outputs;
          [None] for benchmarks without a directly comparable output *)
}

val run : ?fast:bool -> ?log:(string -> unit) -> unit -> result list
(** Runs the full suite: U-Net-shaped and square GEMMs (1/2/4 domains),
    convolution forward (1/4 domains) and backward, a one-epoch CB-GAN
    training step (1/2/4 domains), the int8 quantized rows, and the
    distilled-student rows ([student_unet_fwd], [student_int8_fwd] — both
    against the float32 teacher forward — and the [student_fig14_delta]
    accuracy row), and the kernel rows [unet_fwd_simd] (1/2 domains) and
    [int8_unet_fwd_simd]: OCaml tiled vs SIMD teacher and int8 forwards,
    whose [max_rel_err] is 0 by construction. [fast] (default: [CACHEBOX_FAST] set) shrinks shapes for
    smoke runs; [log] receives a progress line per benchmark. *)

val meta_json : unit -> string
(** The provenance block shared by every bench writer: [git describe] of
    the producing tree (null outside a repo) and the host's core count. *)

val to_json : result list -> string
(** The [BENCH_KERNELS.json] document:
    [{"version": 1, "meta": {...}, "results": [...]}]. *)

val write_json : path:string -> result list -> unit
val pp_table : Format.formatter -> result list -> unit
