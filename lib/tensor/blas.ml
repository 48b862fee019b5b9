let check_2d name t =
  if Array.length (Tensor.shape t) <> 2 then invalid_arg (name ^ ": expected 2-D tensor")

let transpose_into ~src ~dst =
  let m = Tensor.dim src 0 and n = Tensor.dim src 1 in
  let td = src.Tensor.data and rd = dst.Tensor.data in
  for i = 0 to m - 1 do
    let row = i * n in
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set rd ((j * m) + i) (Bigarray.Array1.unsafe_get td (row + j))
    done
  done

let transpose t =
  check_2d "Blas.transpose" t;
  let m = Tensor.dim t 0 and n = Tensor.dim t 1 in
  let r = Tensor.create [| n; m |] in
  transpose_into ~src:t ~dst:r;
  r

(* --- kernel selection ---

   [Simd] runs the tiled float32 GEMM and the int8 GEMM through the
   AVX2+FMA C microkernels in blas_stubs.c; it is the default wherever the
   CPU supports them. [Tiled] is the same cache-blocked, panel-packed
   algorithm in OCaml: what hosts without AVX2+FMA run, and the oracle the
   SIMD kernels are tested against bit for bit (CACHEBOX_KERNEL=scalar).
   [Reference] is the previous two-row-blocked kernel (with materialised
   transposes and no packing), kept callable so the kernels benchmark can
   measure the speedup honestly on the same machine and so a regression can
   be bisected at runtime (CACHEBOX_KERNEL=ref). All three satisfy the same
   contract: bit-identical results at every domain count; [Simd] and
   [Tiled] are moreover bit-identical to each other. *)

type kernel_impl = Reference | Tiled | Simd

external simd_supported : unit -> bool = "cb_simd_supported" [@@noalloc]

let simd_ok = simd_supported ()
let best_kernel () = if simd_ok then Simd else Tiled

let kernel_of_env () =
  match Sys.getenv_opt "CACHEBOX_KERNEL" with
  | Some ("ref" | "reference" | "naive") -> Reference
  | Some ("scalar" | "tiled") -> Tiled
  | Some _ | None -> best_kernel ()

let selected = ref (kernel_of_env ())
let set_kernel k = selected := if k = Simd then best_kernel () else k
let kernel () = !selected

(* Minimum multiply-add count before a kernel is worth packing panels or
   fanning out over the domain pool; below it the overhead dominates.
   Thresholding never affects results: the small path runs the same scalar
   recurrence serially. *)
let par_flops = 16_384
let small_cutoff = ref par_flops
let set_small_cutoff n = small_cutoff := max 0 n

(* --- reference kernel (previous implementation, unchanged) ---

   Core kernel over rows [row_lo .. row_hi] (inclusive) of the output:
   c[i,:] += alpha * a[i,:] * b, with an i-k-j loop order so the inner loop
   streams contiguously over b and c. Two rows of A per pass halve the
   traffic on B. Row slices handed to the pool are aligned to even row pairs
   so the pairing — and with it the exact float behaviour — matches the
   serial pass over [0 .. m-1]. *)
let gemm_rows ~alpha ~ad ~bd ~cd ~k ~n ~row_lo ~row_hi =
  let i = ref row_lo in
  while !i <= row_hi do
    let two_rows = !i + 1 <= row_hi in
    let a_row0 = !i * k and a_row1 = (!i + 1) * k in
    let c_row0 = !i * n and c_row1 = (!i + 1) * n in
    for p = 0 to k - 1 do
      let a0 = alpha *. Bigarray.Array1.unsafe_get ad (a_row0 + p) in
      let a1 =
        if two_rows then alpha *. Bigarray.Array1.unsafe_get ad (a_row1 + p) else 0.0
      in
      if a0 <> 0.0 || a1 <> 0.0 then begin
        let b_row = p * n in
        if two_rows then
          for j = 0 to n - 1 do
            let bv = Bigarray.Array1.unsafe_get bd (b_row + j) in
            Bigarray.Array1.unsafe_set cd (c_row0 + j)
              (Bigarray.Array1.unsafe_get cd (c_row0 + j) +. (a0 *. bv));
            Bigarray.Array1.unsafe_set cd (c_row1 + j)
              (Bigarray.Array1.unsafe_get cd (c_row1 + j) +. (a1 *. bv))
          done
        else
          for j = 0 to n - 1 do
            Bigarray.Array1.unsafe_set cd (c_row0 + j)
              (Bigarray.Array1.unsafe_get cd (c_row0 + j)
              +. (a0 *. Bigarray.Array1.unsafe_get bd (b_row + j)))
          done
      end
    done;
    i := !i + if two_rows then 2 else 1
  done

let gemm_nn_ref ~alpha ~a ~b ~c ~m ~k ~n =
  let ad = a.Tensor.data and bd = b.Tensor.data and cd = c.Tensor.data in
  if m * n * k < par_flops then gemm_rows ~alpha ~ad ~bd ~cd ~k ~n ~row_lo:0 ~row_hi:(m - 1)
  else begin
    (* Slice ownership in units of row pairs keeps the two-row blocking of
       the serial pass intact, so results are bit-identical for any lane
       count. Each lane writes only its own rows of c. *)
    let npairs = (m + 1) / 2 in
    Dpool.parallel_for npairs (fun plo phi ->
        gemm_rows ~alpha ~ad ~bd ~cd ~k ~n ~row_lo:(2 * plo)
          ~row_hi:(min (m - 1) ((2 * phi) + 1)))
  end

(* --- tiled & packed kernel ---

   Classic three-level blocking: C is computed in NC-wide column blocks; for
   each, B is packed one KC x NC panel at a time into NR-wide column
   micro-panels (k-major, zero-padded to a whole panel), and A is packed one
   MC x KC block at a time into MR-tall row micro-panels with alpha folded
   in. The MR x NR register microkernel then accumulates a full KC block
   into local accumulators and flushes to C once.

   Determinism: an element (i, j) of C receives exactly one contribution per
   (jc, pc) block, in pc order, each computed by the same scalar k-ordered
   recurrence. The domain pool partitions rows of C in MR-aligned panels, so
   lane boundaries change neither the KC grid nor any element's accumulation
   order — results are bit-identical for every domain count. Zero padding in
   the packed panels only feeds accumulators whose rows/columns fall outside
   the matrix and are never written back. *)

let mr = 4
let nr = 4
let kc_blk = 256
let mc_blk = 64
let nc_blk = 256


(* Pack op(A)[i0 .. i0+mcur-1, p0 .. p0+kcur-1] as MR-tall k-major panels
   with [alpha] folded in; rows past [mcur] pack as zero. [ac] is the stored
   column count of [a] (its leading dimension). *)
let pack_a ~trans ~alpha ad ~ac ~i0 ~mcur ~p0 ~kcur dst =
  let panels = (mcur + mr - 1) / mr in
  for pi = 0 to panels - 1 do
    let base = pi * mr * kcur in
    let row0 = i0 + (pi * mr) in
    for p = 0 to kcur - 1 do
      let o = base + (p * mr) in
      let kp = p0 + p in
      for r = 0 to mr - 1 do
        let i = row0 + r in
        let v =
          if i < i0 + mcur then
            alpha
            *. (if trans then Bigarray.Array1.unsafe_get ad ((kp * ac) + i)
                else Bigarray.Array1.unsafe_get ad ((i * ac) + kp))
          else 0.0
        in
        Bigarray.Array1.unsafe_set dst (o + r) v
      done
    done
  done

(* Pack op(B)[p0 .. p0+kcur-1, j0 .. j0+ncur-1] as NR-wide k-major panels;
   columns past [ncur] pack as zero. [bc] is [b]'s stored column count. *)
let pack_b ~trans bd ~bc ~p0 ~kcur ~j0 ~ncur dst =
  let panels = (ncur + nr - 1) / nr in
  for pj = 0 to panels - 1 do
    let base = pj * nr * kcur in
    let col0 = j0 + (pj * nr) in
    for p = 0 to kcur - 1 do
      let o = base + (p * nr) in
      let kp = p0 + p in
      for cc = 0 to nr - 1 do
        let j = col0 + cc in
        let v =
          if j < j0 + ncur then
            if trans then Bigarray.Array1.unsafe_get bd ((j * bc) + kp)
            else Bigarray.Array1.unsafe_get bd ((kp * bc) + j)
          else 0.0
        in
        Bigarray.Array1.unsafe_set dst (o + cc) v
      done
    done
  done

(* 4x4 register microkernel: accumulate a full KC block in k order into 16
   local accumulators, then flush [rows] x [cols] of them to C (the rest
   belong to zero-padded edge rows/columns and are discarded). *)
let kern4x4 ap a0 bp b0 ~kcur cd ~c0 ~ldc ~rows ~cols =
  let acc00 = ref 0.0 and acc01 = ref 0.0 and acc02 = ref 0.0 and acc03 = ref 0.0 in
  let acc10 = ref 0.0 and acc11 = ref 0.0 and acc12 = ref 0.0 and acc13 = ref 0.0 in
  let acc20 = ref 0.0 and acc21 = ref 0.0 and acc22 = ref 0.0 and acc23 = ref 0.0 in
  let acc30 = ref 0.0 and acc31 = ref 0.0 and acc32 = ref 0.0 and acc33 = ref 0.0 in
  let ai = ref a0 and bi = ref b0 in
  for _p = 1 to kcur do
    let x0 = Bigarray.Array1.unsafe_get ap !ai
    and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
    and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
    and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
    let y0 = Bigarray.Array1.unsafe_get bp !bi
    and y1 = Bigarray.Array1.unsafe_get bp (!bi + 1)
    and y2 = Bigarray.Array1.unsafe_get bp (!bi + 2)
    and y3 = Bigarray.Array1.unsafe_get bp (!bi + 3) in
    acc00 := !acc00 +. (x0 *. y0);
    acc01 := !acc01 +. (x0 *. y1);
    acc02 := !acc02 +. (x0 *. y2);
    acc03 := !acc03 +. (x0 *. y3);
    acc10 := !acc10 +. (x1 *. y0);
    acc11 := !acc11 +. (x1 *. y1);
    acc12 := !acc12 +. (x1 *. y2);
    acc13 := !acc13 +. (x1 *. y3);
    acc20 := !acc20 +. (x2 *. y0);
    acc21 := !acc21 +. (x2 *. y1);
    acc22 := !acc22 +. (x2 *. y2);
    acc23 := !acc23 +. (x2 *. y3);
    acc30 := !acc30 +. (x3 *. y0);
    acc31 := !acc31 +. (x3 *. y1);
    acc32 := !acc32 +. (x3 *. y2);
    acc33 := !acc33 +. (x3 *. y3);
    ai := !ai + 4;
    bi := !bi + 4
  done;
  if rows = 4 && cols = 4 then begin
    let r0 = c0 and r1 = c0 + ldc in
    let r2 = r1 + ldc in
    let r3 = r2 + ldc in
    Bigarray.Array1.unsafe_set cd r0 (Bigarray.Array1.unsafe_get cd r0 +. !acc00);
    Bigarray.Array1.unsafe_set cd (r0 + 1) (Bigarray.Array1.unsafe_get cd (r0 + 1) +. !acc01);
    Bigarray.Array1.unsafe_set cd (r0 + 2) (Bigarray.Array1.unsafe_get cd (r0 + 2) +. !acc02);
    Bigarray.Array1.unsafe_set cd (r0 + 3) (Bigarray.Array1.unsafe_get cd (r0 + 3) +. !acc03);
    Bigarray.Array1.unsafe_set cd r1 (Bigarray.Array1.unsafe_get cd r1 +. !acc10);
    Bigarray.Array1.unsafe_set cd (r1 + 1) (Bigarray.Array1.unsafe_get cd (r1 + 1) +. !acc11);
    Bigarray.Array1.unsafe_set cd (r1 + 2) (Bigarray.Array1.unsafe_get cd (r1 + 2) +. !acc12);
    Bigarray.Array1.unsafe_set cd (r1 + 3) (Bigarray.Array1.unsafe_get cd (r1 + 3) +. !acc13);
    Bigarray.Array1.unsafe_set cd r2 (Bigarray.Array1.unsafe_get cd r2 +. !acc20);
    Bigarray.Array1.unsafe_set cd (r2 + 1) (Bigarray.Array1.unsafe_get cd (r2 + 1) +. !acc21);
    Bigarray.Array1.unsafe_set cd (r2 + 2) (Bigarray.Array1.unsafe_get cd (r2 + 2) +. !acc22);
    Bigarray.Array1.unsafe_set cd (r2 + 3) (Bigarray.Array1.unsafe_get cd (r2 + 3) +. !acc23);
    Bigarray.Array1.unsafe_set cd r3 (Bigarray.Array1.unsafe_get cd r3 +. !acc30);
    Bigarray.Array1.unsafe_set cd (r3 + 1) (Bigarray.Array1.unsafe_get cd (r3 + 1) +. !acc31);
    Bigarray.Array1.unsafe_set cd (r3 + 2) (Bigarray.Array1.unsafe_get cd (r3 + 2) +. !acc32);
    Bigarray.Array1.unsafe_set cd (r3 + 3) (Bigarray.Array1.unsafe_get cd (r3 + 3) +. !acc33)
  end
  else begin
    let accs =
      [|
        !acc00; !acc01; !acc02; !acc03; !acc10; !acc11; !acc12; !acc13;
        !acc20; !acc21; !acc22; !acc23; !acc30; !acc31; !acc32; !acc33;
      |]
    in
    for r = 0 to rows - 1 do
      let row = c0 + (r * ldc) in
      for c = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set cd (row + c)
          (Bigarray.Array1.unsafe_get cd (row + c) +. accs.((r * 4) + c))
      done
    done
  end

(* One lane's share: rows [row_lo .. row_hi] of C, full jc -> pc -> ic block
   sweep. [ap]/[bp] are this lane's packing buffers (>= mc_blk*kc_blk and
   nc_blk*kc_blk elements). *)
let gemm_tile_rows ~trans_a ~trans_b ~alpha ~ad ~ac ~bd ~bc ~cd ~k ~n ~row_lo ~row_hi ~ap
    ~bp =
  let jc = ref 0 in
  while !jc < n do
    let ncur = min nc_blk (n - !jc) in
    let pc = ref 0 in
    while !pc < k do
      let kcur = min kc_blk (k - !pc) in
      pack_b ~trans:trans_b bd ~bc ~p0:!pc ~kcur ~j0:!jc ~ncur bp;
      let ic = ref row_lo in
      while !ic <= row_hi do
        let mcur = min mc_blk (row_hi - !ic + 1) in
        pack_a ~trans:trans_a ~alpha ad ~ac ~i0:!ic ~mcur ~p0:!pc ~kcur ap;
        let mpan = (mcur + mr - 1) / mr and npan = (ncur + nr - 1) / nr in
        (* NR-panel outer, MR-panel inner: the KC x NR sliver of packed B
           stays hot in L1 while the whole packed A block streams past it. *)
        for pj = 0 to npan - 1 do
          let cols = min nr (ncur - (pj * nr)) in
          let b0 = pj * nr * kcur and jcol = !jc + (pj * nr) in
          for pi = 0 to mpan - 1 do
            let rows = min mr (mcur - (pi * mr)) in
            kern4x4 ap (pi * mr * kcur) bp b0 ~kcur cd
              ~c0:(((!ic + (pi * mr)) * n) + jcol)
              ~ldc:n ~rows ~cols
          done
        done;
        ic := !ic + mcur
      done;
      pc := !pc + kcur
    done;
    jc := !jc + ncur
  done

(* One lane of the SIMD kernel: rows [row_lo .. row_hi] of C over the same
   block grid. [ap]/[bp] are scratch for MC x KC packed doubles and KC x NC
   packed floats. *)
external simd_sgemm_lane :
  bool ->
  bool ->
  (float[@unboxed]) ->
  Tensor.buffer ->
  (int[@untagged]) ->
  Tensor.buffer ->
  (int[@untagged]) ->
  Tensor.buffer ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Tensor.buffer ->
  Tensor.buffer ->
  unit = "cb_sgemm_lane_byte" "cb_sgemm_lane"
[@@noalloc]

let gemm_tiled ~simd ~trans_a ~trans_b ~alpha ~a ~b ~c ~m ~k ~n =
  let ad = a.Tensor.data and bd = b.Tensor.data and cd = c.Tensor.data in
  let ac = Tensor.dim a 1 and bc = Tensor.dim b 1 in
  (* Row ownership in MR-aligned panels: every lane runs the same jc/pc
     block grid over its own rows, so results are bit-identical for any
     lane count (see the module comment above). *)
  let npanels = (m + mr - 1) / mr in
  Dpool.parallel_for npanels (fun plo phi ->
      let row_lo = plo * mr and row_hi = min (m - 1) ((phi * mr) + mr - 1) in
      if simd then
        (* Packed A holds doubles: two float32 slots per element. *)
        Workspace.with_buf2 [| 2 * mc_blk * kc_blk |] [| nc_blk * kc_blk |] (fun apt bpt ->
            simd_sgemm_lane trans_a trans_b alpha ad ac bd bc cd k n row_lo row_hi
              apt.Tensor.data bpt.Tensor.data)
      else
        Workspace.with_buf2 [| mc_blk * kc_blk |] [| nc_blk * kc_blk |] (fun apt bpt ->
            gemm_tile_rows ~trans_a ~trans_b ~alpha ~ad ~ac ~bd ~bc ~cd ~k ~n ~row_lo
              ~row_hi ~ap:apt.Tensor.data ~bp:bpt.Tensor.data))

(* Materialise op(t) (dims rows x cols) into workspace scratch when a
   transpose is requested; the small path's row kernel wants plain NN
   operands but must not allocate. *)
let with_op ~trans t ~rows ~cols f =
  if not trans then f t
  else
    Workspace.with_buf [| rows; cols |] (fun dst ->
        transpose_into ~src:t ~dst;
        f dst)

let gemm ?(trans_a = false) ?(trans_b = false) ~alpha ~a ~b ~beta c =
  check_2d "Blas.gemm a" a;
  check_2d "Blas.gemm b" b;
  check_2d "Blas.gemm c" c;
  let m = Tensor.dim a (if trans_a then 1 else 0) in
  let k = Tensor.dim a (if trans_a then 0 else 1) in
  let k2 = Tensor.dim b (if trans_b then 1 else 0) in
  let n = Tensor.dim b (if trans_b then 0 else 1) in
  if k <> k2 then invalid_arg "Blas.gemm: inner dimension mismatch";
  if Tensor.dim c 0 <> m || Tensor.dim c 1 <> n then
    invalid_arg "Blas.gemm: output dimension mismatch";
  if beta = 0.0 then Tensor.fill c 0.0 else if beta <> 1.0 then Tensor.scale_ c beta;
  if alpha = 0.0 then ()
  else
    match !selected with
    | Reference ->
      let a = if trans_a then transpose a else a in
      let b = if trans_b then transpose b else b in
      gemm_nn_ref ~alpha ~a ~b ~c ~m ~k ~n
    | (Tiled | Simd) as kern ->
      if m * n * k < !small_cutoff then
        with_op ~trans:trans_a a ~rows:m ~cols:k (fun a ->
            with_op ~trans:trans_b b ~rows:k ~cols:n (fun b ->
                gemm_rows ~alpha ~ad:a.Tensor.data ~bd:b.Tensor.data ~cd:c.Tensor.data
                  ~k ~n ~row_lo:0 ~row_hi:(m - 1)))
      else gemm_tiled ~simd:(kern = Simd) ~trans_a ~trans_b ~alpha ~a ~b ~c ~m ~k ~n

let matmul a b =
  let m = Tensor.dim a 0 and n = Tensor.dim b 1 in
  let c = Tensor.zeros [| m; n |] in
  gemm ~alpha:1.0 ~a ~b ~beta:0.0 c;
  c

let gemv ~a ~x =
  check_2d "Blas.gemv" a;
  if Array.length (Tensor.shape x) <> 1 then invalid_arg "Blas.gemv: x must be 1-D";
  let m = Tensor.dim a 0 and n = Tensor.dim a 1 in
  if Tensor.dim x 0 <> n then invalid_arg "Blas.gemv: dimension mismatch";
  let r = Tensor.zeros [| m |] in
  let ad = a.Tensor.data and xd = x.Tensor.data and rd = r.Tensor.data in
  let rows row_lo row_hi =
    for i = row_lo to row_hi do
      let row = i * n in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (Bigarray.Array1.unsafe_get ad (row + j) *. Bigarray.Array1.unsafe_get xd j)
      done;
      Bigarray.Array1.unsafe_set rd i !acc
    done
  in
  (* Each row's dot product is self-contained, so row slices are bit-identical
     to the serial loop. *)
  if m * n < par_flops then rows 0 (m - 1) else Dpool.parallel_for m rows;
  r

(* --- int8 quantized GEMM micro-path ---

   Same MC/KC/NC grid and MR=NR=4 panel discipline as the float32 kernel,
   but the weight side is quantized once (symmetric per-output-row scales,
   q in [-127, 127]) and prepacked at load time into MR-tall k-major byte
   panels, and the activation side is quantized per call (one symmetric
   per-tensor scale) while packing.

   Arithmetic: values are stored offset-encoded as ua = q + 128 in
   [1, 255], and each packed-B word carries TWO adjacent columns in 32-bit
   lanes of one 63-bit native int (col j in bits 0-31, col j+1 in bits
   32-62). A k-step of the microkernel is then 4 byte loads + 2 word loads
   + 8 integer multiply-adds covering the full 4x4 tile — half the
   multiplies of the float kernel, on smaller operands. Per KC block the
   low lane is bounded by 256*255*255 < 2^25 (so it never carries into the
   high lane) and the whole word by ~2^57 < 2^62, so the accumulation is
   exact. The epilogue recovers the signed dot product per lane as

     sum(qa*qb) = lane - 128*(sum(qa) + sum(qb)) - 128*128*kcur

   using row sums recorded at quantize time and column sums recorded while
   packing, then dequantizes with scale_w[i] * act_scale and adds the
   (optional) fused bias on the first KC block.

   Determinism: identical to the float kernel — lanes own MR-aligned row
   panels, every output element accumulates one float contribution per KC
   block in pc order, and the integer part is exact, so results are
   bit-identical at every domain count. *)

module Int8 = struct
  type qweight = {
    qm : int;
    qk : int;
    qpack : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
        (* ua bytes; KC-major blocks of MR-tall k-major panels, padded rows = 128 *)
    qscales : float array;  (* per-output-row dequant scale, length qm *)
    qrow_sums : int array;  (* signed q row sums, one per (KC block, row) *)
    qbias : float array option;
  }

  let rows t = t.qm
  let cols t = t.qk
  let scales t = t.qscales
  let bias t = t.qbias

  (* Round-to-nearest (ties away from zero), clamped to the symmetric int8
     range. [inv] is the reciprocal scale. Truncation after a signed 0.5
     bump is round-half-away and compiles to the cvttsd2si intrinsic —
     packing runs on every call, so no C call here. *)
  let[@inline] q8 x inv =
    let v = x *. inv in
    let r =
      if v >= 0.0 then int_of_float (v +. 0.5) else -int_of_float (0.5 -. v)
    in
    if r > 127 then 127 else if r < -127 then -127 else r

  (* Smallest power of two >= s (exact for finite positive s). Power-of-two
     scales keep dequantization multipliers exactly representable, which is
     friendly to cross-platform bit-identity of serialized models. *)
  let pow2_up s =
    if s <= 0.0 then 1.0
    else
      let m, e = Float.frexp s in
      if m = 0.5 then s else Float.ldexp 1.0 e

  let nblocks k = (k + kc_blk - 1) / kc_blk
  let npanels m = (m + mr - 1) / mr

  (* Offset of (row i, depth p) in the packed byte layout. *)
  let pack_index ~m ~k ~i ~p =
    let npan = npanels m in
    let b = p / kc_blk in
    let p0 = b * kc_blk in
    let kcur = min kc_blk (k - p0) in
    (npan * mr * p0) + (i / mr * mr * kcur) + ((p - p0) * mr) + (i mod mr)

  let pack ~m ~k ~scales ?bias ~get () =
    if m <= 0 || k <= 0 then invalid_arg "Blas.Int8.pack: dims must be positive";
    if Array.length scales <> m then invalid_arg "Blas.Int8.pack: scales length";
    (match bias with
    | Some b when Array.length b <> m -> invalid_arg "Blas.Int8.pack: bias length"
    | _ -> ());
    let npan = npanels m and nblk = nblocks k in
    let qpack =
      Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout (npan * mr * k)
    in
    let qrow_sums = Array.make (nblk * m) 0 in
    for b = 0 to nblk - 1 do
      let p0 = b * kc_blk in
      let kcur = min kc_blk (k - p0) in
      let base = npan * mr * p0 in
      for pi = 0 to npan - 1 do
        let pbase = base + (pi * mr * kcur) in
        for p = 0 to kcur - 1 do
          let o = pbase + (p * mr) in
          for r = 0 to mr - 1 do
            let i = (pi * mr) + r in
            if i < m then begin
              let q = get i (p0 + p) in
              let q = if q > 127 then 127 else if q < -127 then -127 else q in
              Bigarray.Array1.unsafe_set qpack (o + r) (q + 128);
              qrow_sums.((b * m) + i) <- qrow_sums.((b * m) + i) + q
            end
            else Bigarray.Array1.unsafe_set qpack (o + r) 128
          done
        done
      done
    done;
    { qm = m; qk = k; qpack; qscales = scales; qrow_sums; qbias = bias }

  let get_q t ~i ~p =
    if i < 0 || i >= t.qm || p < 0 || p >= t.qk then invalid_arg "Blas.Int8.get_q";
    Bigarray.Array1.get t.qpack (pack_index ~m:t.qm ~k:t.qk ~i ~p) - 128

  let quantize ?(trans = false) ?(pow2 = false) ?bias w =
    check_2d "Blas.Int8.quantize" w;
    let m = Tensor.dim w (if trans then 1 else 0) in
    let k = Tensor.dim w (if trans then 0 else 1) in
    let wd = w.Tensor.data in
    let wc = Tensor.dim w 1 in
    let at i p =
      if trans then Bigarray.Array1.unsafe_get wd ((p * wc) + i)
      else Bigarray.Array1.unsafe_get wd ((i * wc) + p)
    in
    let scales = Array.make m 1.0 in
    let invs = Array.make m 1.0 in
    for i = 0 to m - 1 do
      let amax = ref 0.0 in
      for p = 0 to k - 1 do
        let v = Float.abs (at i p) in
        if v > !amax then amax := v
      done;
      let s = if !amax = 0.0 then 1.0 else !amax /. 127.0 in
      let s = if pow2 then pow2_up s else s in
      scales.(i) <- s;
      invs.(i) <- 1.0 /. s
    done;
    pack ~m ~k ~scales ?bias ~get:(fun i p -> q8 (at i p) invs.(i)) ()

  (* Quantize and pack op(B)[p0 .. p0+kcur-1, j0 .. j0+ncur-1] as column-PAIR
     words (two 32-bit ua lanes per native int), recording signed per-column
     q sums. Columns past [ncur] pack as ua = 128 (q = 0). *)
  let pack_qb ~trans bd ~bc ~p0 ~kcur ~j0 ~ncur ~inv_act bw bsums =
    let panels = (ncur + nr - 1) / nr in
    for pj = 0 to panels - 1 do
      let wbase = pj * 2 * kcur in
      let col0 = j0 + (pj * nr) in
      let jend = j0 + ncur in
      let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
      if col0 + nr <= jend && not trans then begin
        (* fast path: full panel, natural B layout *)
        for p = 0 to kcur - 1 do
          let row = ((p0 + p) * bc) + col0 in
          let q0 = q8 (Bigarray.Array1.unsafe_get bd row) inv_act in
          let q1 = q8 (Bigarray.Array1.unsafe_get bd (row + 1)) inv_act in
          let q2 = q8 (Bigarray.Array1.unsafe_get bd (row + 2)) inv_act in
          let q3 = q8 (Bigarray.Array1.unsafe_get bd (row + 3)) inv_act in
          s0 := !s0 + q0;
          s1 := !s1 + q1;
          s2 := !s2 + q2;
          s3 := !s3 + q3;
          let o = wbase + (2 * p) in
          Bigarray.Array1.unsafe_set bw o ((q0 + 128) lor ((q1 + 128) lsl 32));
          Bigarray.Array1.unsafe_set bw (o + 1) ((q2 + 128) lor ((q3 + 128) lsl 32))
        done
      end
      else
        for p = 0 to kcur - 1 do
          let kp = p0 + p in
          let qat cc =
            let j = col0 + cc in
            if j < jend then
              q8
                (if trans then Bigarray.Array1.unsafe_get bd ((j * bc) + kp)
                 else Bigarray.Array1.unsafe_get bd ((kp * bc) + j))
                inv_act
            else 0
          in
          let q0 = qat 0 and q1 = qat 1 and q2 = qat 2 and q3 = qat 3 in
          s0 := !s0 + q0;
          s1 := !s1 + q1;
          s2 := !s2 + q2;
          s3 := !s3 + q3;
          let o = wbase + (2 * p) in
          Bigarray.Array1.unsafe_set bw o ((q0 + 128) lor ((q1 + 128) lsl 32));
          Bigarray.Array1.unsafe_set bw (o + 1) ((q2 + 128) lor ((q3 + 128) lsl 32))
        done;
      let sb = pj * nr in
      Bigarray.Array1.unsafe_set bsums sb !s0;
      Bigarray.Array1.unsafe_set bsums (sb + 1) !s1;
      Bigarray.Array1.unsafe_set bsums (sb + 2) !s2;
      Bigarray.Array1.unsafe_set bsums (sb + 3) !s3
    done

  (* 4-row x 2-word microkernel over one KC block: 8 packed-pair integer
     accumulators, written into [accs] (length 8, row-major by word). *)
  let kern4x2w ap abase bw bbase ~kcur accs =
    let acc00 = ref 0 and acc01 = ref 0 in
    let acc10 = ref 0 and acc11 = ref 0 in
    let acc20 = ref 0 and acc21 = ref 0 in
    let acc30 = ref 0 and acc31 = ref 0 in
    let ai = ref abase and bi = ref bbase in
    (* k unrolled by two: halves the pointer/branch overhead per 16 MACs. *)
    for _p = 1 to kcur / 2 do
      let x0 = Bigarray.Array1.unsafe_get ap !ai
      and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
      and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
      and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
      let w0 = Bigarray.Array1.unsafe_get bw !bi
      and w1 = Bigarray.Array1.unsafe_get bw (!bi + 1) in
      acc00 := !acc00 + (x0 * w0);
      acc01 := !acc01 + (x0 * w1);
      acc10 := !acc10 + (x1 * w0);
      acc11 := !acc11 + (x1 * w1);
      acc20 := !acc20 + (x2 * w0);
      acc21 := !acc21 + (x2 * w1);
      acc30 := !acc30 + (x3 * w0);
      acc31 := !acc31 + (x3 * w1);
      let x0 = Bigarray.Array1.unsafe_get ap (!ai + 4)
      and x1 = Bigarray.Array1.unsafe_get ap (!ai + 5)
      and x2 = Bigarray.Array1.unsafe_get ap (!ai + 6)
      and x3 = Bigarray.Array1.unsafe_get ap (!ai + 7) in
      let w0 = Bigarray.Array1.unsafe_get bw (!bi + 2)
      and w1 = Bigarray.Array1.unsafe_get bw (!bi + 3) in
      acc00 := !acc00 + (x0 * w0);
      acc01 := !acc01 + (x0 * w1);
      acc10 := !acc10 + (x1 * w0);
      acc11 := !acc11 + (x1 * w1);
      acc20 := !acc20 + (x2 * w0);
      acc21 := !acc21 + (x2 * w1);
      acc30 := !acc30 + (x3 * w0);
      acc31 := !acc31 + (x3 * w1);
      ai := !ai + 8;
      bi := !bi + 4
    done;
    if kcur land 1 = 1 then begin
      let x0 = Bigarray.Array1.unsafe_get ap !ai
      and x1 = Bigarray.Array1.unsafe_get ap (!ai + 1)
      and x2 = Bigarray.Array1.unsafe_get ap (!ai + 2)
      and x3 = Bigarray.Array1.unsafe_get ap (!ai + 3) in
      let w0 = Bigarray.Array1.unsafe_get bw !bi
      and w1 = Bigarray.Array1.unsafe_get bw (!bi + 1) in
      acc00 := !acc00 + (x0 * w0);
      acc01 := !acc01 + (x0 * w1);
      acc10 := !acc10 + (x1 * w0);
      acc11 := !acc11 + (x1 * w1);
      acc20 := !acc20 + (x2 * w0);
      acc21 := !acc21 + (x2 * w1);
      acc30 := !acc30 + (x3 * w0);
      acc31 := !acc31 + (x3 * w1)
    end;
    accs.(0) <- !acc00;
    accs.(1) <- !acc01;
    accs.(2) <- !acc10;
    accs.(3) <- !acc11;
    accs.(4) <- !acc20;
    accs.(5) <- !acc21;
    accs.(6) <- !acc30;
    accs.(7) <- !acc31

  (* One lane's share: MR panels [pan_lo .. pan_hi] of C, full jc -> pc
     sweep. A is prepacked so there is no per-lane A packing (and no MC
     loop: a lane's whole byte block per KC step is a few KB). *)
  let gemm_lane ~qw ~act_scale ~trans_b ~bd ~bc ~cd ~n ~pan_lo ~pan_hi ~bw ~bsums =
    let m = qw.qm and k = qw.qk in
    let npan = npanels m in
    let ap = qw.qpack in
    let inv_act = 1.0 /. act_scale in
    let accs = Array.make 8 0 in
    let jc = ref 0 in
    while !jc < n do
      let ncur = min nc_blk (n - !jc) in
      let pc = ref 0 in
      while !pc < k do
        let kcur = min kc_blk (k - !pc) in
        let blk = !pc / kc_blk in
        let first = !pc = 0 in
        pack_qb ~trans:trans_b bd ~bc ~p0:!pc ~kcur ~j0:!jc ~ncur ~inv_act bw bsums;
        let ablock = npan * mr * !pc in
        let npanb = (ncur + nr - 1) / nr in
        for pj = 0 to npanb - 1 do
          let cols = min nr (ncur - (pj * nr)) in
          let bbase = pj * 2 * kcur and jcol = !jc + (pj * nr) in
          for pi = pan_lo to pan_hi do
            let row0 = pi * mr in
            let rows = min mr (m - row0) in
            kern4x2w ap (ablock + (pi * mr * kcur)) bw bbase ~kcur accs;
            for r = 0 to rows - 1 do
              let i = row0 + r in
              let sw = qw.qscales.(i) *. act_scale in
              let rsum = qw.qrow_sums.((blk * m) + i) in
              let cbase = (i * n) + jcol in
              let badd =
                if first then match qw.qbias with Some bs -> bs.(i) | None -> 0.0
                else 0.0
              in
              for cc = 0 to cols - 1 do
                let w = accs.((r * 2) + (cc lsr 1)) in
                let lane =
                  if cc land 1 = 0 then w land 0xFFFFFFFF else w lsr 32
                in
                let csum = Bigarray.Array1.unsafe_get bsums ((pj * nr) + cc) in
                let dot = lane - (128 * (rsum + csum)) - (16384 * kcur) in
                let o = cbase + cc in
                Bigarray.Array1.unsafe_set cd o
                  (Bigarray.Array1.unsafe_get cd o +. (sw *. float_of_int dot) +. badd)
              done
            done
          done
        done;
        pc := !pc + kcur
      done;
      jc := !jc + ncur
    done

  (* One lane of the SIMD int8 kernel: MR panels [pan_lo .. pan_hi] of the
     prepacked weight; [bias] is read only when [has_bias]. *)
  external simd_qgemm_lane :
    (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t ->
    (int[@untagged]) ->
    (int[@untagged]) ->
    float array ->
    float array ->
    bool ->
    (float[@unboxed]) ->
    bool ->
    Tensor.buffer ->
    (int[@untagged]) ->
    Tensor.buffer ->
    (int[@untagged]) ->
    (int[@untagged]) ->
    (int[@untagged]) ->
    Tensor.buffer ->
    unit = "cb_qgemm_lane_byte" "cb_qgemm_lane"
  [@@noalloc]

  let gemm ?(trans_b = false) ~a:qw ~act_scale ~b c =
    check_2d "Blas.Int8.gemm b" b;
    check_2d "Blas.Int8.gemm c" c;
    if not (Float.is_finite act_scale) || act_scale <= 0.0 then
      invalid_arg "Blas.Int8.gemm: act_scale must be positive";
    let k = Tensor.dim b (if trans_b then 1 else 0) in
    let n = Tensor.dim b (if trans_b then 0 else 1) in
    if k <> qw.qk then invalid_arg "Blas.Int8.gemm: inner dimension mismatch";
    if Tensor.dim c 0 <> qw.qm || Tensor.dim c 1 <> n then
      invalid_arg "Blas.Int8.gemm: output dimension mismatch";
    Tensor.fill c 0.0;
    let bd = b.Tensor.data and cd = c.Tensor.data in
    let bc = Tensor.dim b 1 in
    let npan = npanels qw.qm in
    if !selected = Simd then begin
      let bias, has_bias =
        match qw.qbias with Some bs -> (bs, true) | None -> (qw.qscales, false)
      in
      Dpool.parallel_for npan (fun plo phi ->
          (* KC x NC int16 quantized B panels: two per float32 slot. *)
          Workspace.with_buf [| kc_blk * nc_blk / 2 |] (fun bq ->
              simd_qgemm_lane qw.qpack qw.qm qw.qk qw.qscales bias has_bias act_scale
                trans_b bd bc cd n plo phi bq.Tensor.data))
    end
    else
      let words = 2 * kc_blk * ((nc_blk + nr - 1) / nr) in
      Dpool.parallel_for npan (fun plo phi ->
          Workspace.with_ibuf2 words nc_blk (fun bw bsums ->
              gemm_lane ~qw ~act_scale ~trans_b ~bd ~bc ~cd ~n ~pan_lo:plo ~pan_hi:phi
                ~bw ~bsums))
end
