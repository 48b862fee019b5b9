(** Dense linear algebra kernels over 2-D {!Tensor.t} values.

    These are the hot loops of the neural-network stack: everything
    convolutional is lowered onto {!gemm} through im2col (see {!Conv}).

    The production GEMM is cache-blocked and panel-packed: A and B are
    copied into contiguous MR-tall / NR-wide k-major micro-panels one
    MC x KC / KC x NC block at a time (packing buffers come from the
    {!Workspace} arena, so steady state allocates nothing), and an MR x NR
    register microkernel accumulates each KC block before flushing to C.
    Transposes are absorbed by the packing — [trans_a]/[trans_b] never
    materialise a transposed copy on this path.

    Determinism contract: results are bit-identical for every domain count.
    The pool partitions rows of C in MR-aligned panels and every element's
    accumulation order depends only on the KC block grid, never on lane
    boundaries. The same order makes the SIMD and OCaml tiled kernels
    bit-identical to each other. *)

type kernel_impl =
  | Reference  (** previous two-row-blocked kernel, kept for benchmarking *)
  | Tiled
      (** cache-blocked, packed kernels in OCaml: the fallback on hosts
          without AVX2+FMA, and the oracle for [Simd] *)
  | Simd
      (** the same blocking through AVX2+FMA C microkernels, float32 and
          int8; bit-identical to [Tiled] (default where supported) *)

val set_kernel : kernel_impl -> unit
val kernel : unit -> kernel_impl
(** Kernel selection; defaults to {!best_kernel}, [Tiled] when
    [CACHEBOX_KERNEL=scalar] is set, [Reference] when [CACHEBOX_KERNEL=ref]
    is. All implementations satisfy the full {!gemm} contract.
    [set_kernel Simd] on a host without AVX2+FMA selects [Tiled]. *)

val best_kernel : unit -> kernel_impl
(** [Simd] when this CPU supports AVX2 and FMA, else [Tiled]. *)

val set_small_cutoff : int -> unit
(** Multiply-add count below which {!gemm} uses the serial row kernel
    instead of packing panels (default 16384). Exposed so tests can force
    tiny shapes through the tiled path; results never depend on it. *)

val gemm :
  ?trans_a:bool ->
  ?trans_b:bool ->
  alpha:float ->
  a:Tensor.t ->
  b:Tensor.t ->
  beta:float ->
  Tensor.t ->
  unit
(** [gemm ~alpha ~a ~b ~beta c] computes [c <- alpha * op(a) * op(b) + beta * c]
    where [op] optionally transposes. All of [a], [b], [c] are 2-D; inner
    dimensions must agree. *)

val matmul : Tensor.t -> Tensor.t -> Tensor.t
(** [matmul a b] allocates [a * b] for 2-D [a], [b]. *)

val transpose : Tensor.t -> Tensor.t
(** Fresh transposed copy of a 2-D tensor. *)

val transpose_into : src:Tensor.t -> dst:Tensor.t -> unit
(** Writes [src]'s transpose into caller-owned [dst] (no allocation); [dst]
    must have the transposed element count. *)

val gemv : a:Tensor.t -> x:Tensor.t -> Tensor.t
(** [gemv ~a ~x] is the matrix-vector product for 2-D [a] and 1-D [x]. *)

(** Int8 quantized GEMM micro-path.

    Same blocking grid and MR=NR=4 panel discipline as the float32 kernel,
    but the weight operand is quantized symmetrically (per-output-row
    scales, q in [-127, 127]) and prepacked ONCE into byte micro-panels,
    while the activation operand is quantized per call with a single
    per-tensor scale during packing. Packed activation columns travel in
    pairs — two offset-encoded 32-bit lanes per native int — so a k-step
    of the microkernel does 8 integer multiply-adds for a full 4x4 tile.
    Integer accumulation over a KC block is exact (no lane can overflow or
    carry); the epilogue recovers the signed dot products, dequantizes
    with [weight_scale * act_scale] and fuses the optional per-row bias.

    Determinism contract: identical to the float kernel — bit-identical
    results at every domain count, and between the [Simd] kernel (exact
    int32 dots through [vpmaddwd]) and the OCaml one. *)
module Int8 : sig
  type qweight
  (** A quantized, prepacked weight matrix (plus scales, per-block row
      sums, and an optional fused bias). *)

  val quantize : ?trans:bool -> ?pow2:bool -> ?bias:float array -> Tensor.t -> qweight
  (** [quantize w] quantizes op(w) (2-D; [trans] selects the transpose)
      with symmetric per-output-row scales [maxabs/127] ([pow2] rounds each
      scale up to the next power of two) and packs it. [bias] (length =
      output rows) is fused into the {!gemm} epilogue. *)

  val pack :
    m:int ->
    k:int ->
    scales:float array ->
    ?bias:float array ->
    get:(int -> int -> int) ->
    unit ->
    qweight
  (** Rebuild a [qweight] from already-quantized values: [get i p] must
      return the signed int8 value of row [i], depth [p] (clamped to
      [-127, 127]). This is the deserialization path — a quantized
      checkpoint stores canonical bytes + scales and repacks on load
      without ever materializing float weights. *)

  val gemm : ?trans_b:bool -> a:qweight -> act_scale:float -> b:Tensor.t -> Tensor.t -> unit
  (** [gemm ~a ~act_scale ~b c] overwrites [c] with
      [dequant(a * quant(op(b))) + bias]: op(b) is quantized on the fly at
      the symmetric per-tensor scale [act_scale] while packing. [c] must be
      [rows a] x [cols op(b)]. *)

  val rows : qweight -> int
  val cols : qweight -> int
  val scales : qweight -> float array
  val bias : qweight -> float array option

  val get_q : qweight -> i:int -> p:int -> int
  (** Signed quantized value at (row, depth) — the serialization readback. *)

  val pow2_up : float -> float
  (** Smallest power of two >= the argument (exact; 1.0 for non-positive). *)
end
