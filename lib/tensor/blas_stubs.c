/* AVX2+FMA microkernels behind Blas.gemm's tiled path and Blas.Int8.gemm.

   Both kernels are bit-identical to the OCaml tiled kernels in blas.ml, not
   merely close to them:

   - float32: every element of C receives one contribution per KC block, in
     KC order, accumulated in double and flushed as
     c = (float)((double)c + acc). The product of two float32 values is
     exact in double (24 + 24 < 53 mantissa bits), so fma(a, b, acc) rounds
     exactly like OCaml's [acc +. a *. b]. The register tile shape (FMR x NR
     below) is free: it changes which accumulators live together, never an
     element's accumulation order.
   - int8: the signed dot product of one KC block is an exact int32 (|dot|
     <= 256 * 127 * 127), whatever instruction computes it, and the
     dequant/bias epilogue repeats the OCaml expression operation for
     operation. The activation quantizer reproduces OCaml's [q8], including
     the 63-bit wrap of [int_of_float] on NaN, infinities and huge values.

   Both depend on the compiler not contracting a*b+c into an FMA on its own
   (that would change roundings, e.g. in q8's [x * inv + 0.5]); the dune
   rule compiles this file with -ffp-contract=off.

   Packing scratch is borrowed by the OCaml caller from the Workspace arena
   and passed in (only a 2 KB int8 weight panel sits on the C stack); these
   functions never allocate and never touch the OCaml heap, so every
   external is [@@noalloc]. On hosts without AVX2+FMA (and on
   non-x86 targets) cb_simd_supported returns false and the OCaml kernels
   run instead. */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Blocking grid. KC must equal [kc_blk] in blas.ml: it fixes where each
   element's accumulation is flushed to C. MC and NC only affect speed; MC
   is a multiple of FMR no larger than blas.ml's [mc_blk], whose packing
   buffer it fills. */
#define KC 256
#define MC 60
#define NC 256
/* Register tiles: FMR x NR for float32, MR x NR for int8, where MR is the
   row-panel height of the prepacked int8 weights. */
#define FMR 6
#define MR 4
#define NR 8

#if defined(__x86_64__) && defined(__GNUC__)

#include <immintrin.h>

#define SIMD __attribute__((target("avx2,fma")))

static inline long lmin(long a, long b) { return a < b ? a : b; }

/* ---------- float32 ---------- */

/* (double)(float)(alpha * x) for four floats: the OCaml kernel's packed
   A value, alpha folded in and rounded back to float32. */
SIMD static inline void store_alpha4(double *d, __m128 x, __m256d alpha)
{
  _mm256_storeu_pd(d, _mm256_cvtps_pd(_mm256_cvtpd_ps(_mm256_mul_pd(_mm256_cvtps_pd(x), alpha))));
}

/* op(A)[i0 .. i0+mcur-1, p0 .. p0+kcur-1] as FMR-tall k-major panels of
   doubles, alpha folded in and rounded to float32 as in blas.ml; rows past
   [mcur] pack as zero. */
SIMD static void pack_a(int trans, double alpha, const float *a, long ac, long i0, long mcur,
                        long p0, long kcur, double *dst)
{
  __m256d valpha = _mm256_set1_pd(alpha);
  for (long pi = 0; pi * FMR < mcur; pi++) {
    double *d = dst + pi * FMR * kcur;
    long row0 = i0 + pi * FMR;
    long rows = lmin(FMR, mcur - pi * FMR);
    long r = 0;
    if (rows >= 4 && trans) {
      /* op(A) columns are contiguous: rows 0-3 in one load per k step. */
      for (long p = 0; p < kcur; p++)
        store_alpha4(d + p * FMR, _mm_loadu_ps(a + (p0 + p) * ac + row0), valpha);
      r = 4;
    } else if (rows >= 4) {
      /* Rows 0-3, four k steps at a time, transposed in registers. */
      const float *r0 = a + row0 * ac + p0;
      long p = 0;
      for (; p + 4 <= kcur; p += 4) {
        __m128 x0 = _mm_loadu_ps(r0 + p), x1 = _mm_loadu_ps(r0 + ac + p);
        __m128 x2 = _mm_loadu_ps(r0 + 2 * ac + p), x3 = _mm_loadu_ps(r0 + 3 * ac + p);
        _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
        store_alpha4(d + p * FMR, x0, valpha);
        store_alpha4(d + (p + 1) * FMR, x1, valpha);
        store_alpha4(d + (p + 2) * FMR, x2, valpha);
        store_alpha4(d + (p + 3) * FMR, x3, valpha);
      }
      for (; p < kcur; p++)
        for (long q = 0; q < 4; q++)
          d[p * FMR + q] = (double)(float)(alpha * (double)r0[q * ac + p]);
      r = 4;
    }
    for (; r < FMR; r++) {
      long i = row0 + r;
      if (r >= rows)
        for (long p = 0; p < kcur; p++) d[p * FMR + r] = 0.0;
      else if (trans)
        for (long p = 0; p < kcur; p++)
          d[p * FMR + r] = (double)(float)(alpha * (double)a[(p0 + p) * ac + i]);
      else
        for (long p = 0; p < kcur; p++)
          d[p * FMR + r] = (double)(float)(alpha * (double)a[i * ac + p0 + p]);
    }
  }
}

/* op(B)[p0 .. p0+kcur-1, j0 .. j0+ncur-1] as NR-wide k-major panels of
   floats; columns past [ncur] pack as zero. */
SIMD static void pack_b(int trans, const float *b, long bc, long p0, long kcur, long j0,
                        long ncur, float *dst)
{
  for (long pj = 0; pj * NR < ncur; pj++) {
    float *d = dst + pj * NR * kcur;
    long col0 = j0 + pj * NR;
    long cols = lmin(NR, ncur - pj * NR);
    if (!trans && cols == NR) {
      for (long p = 0; p < kcur; p++)
        _mm256_storeu_ps(d + p * NR, _mm256_loadu_ps(b + (p0 + p) * bc + col0));
    } else {
      for (long c = 0; c < NR; c++) {
        long j = col0 + c;
        if (c >= cols)
          for (long p = 0; p < kcur; p++) d[p * NR + c] = 0.0f;
        else if (trans)
          for (long p = 0; p < kcur; p++) d[p * NR + c] = b[j * bc + p0 + p];
        else
          for (long p = 0; p < kcur; p++) d[p * NR + c] = b[(p0 + p) * bc + j];
      }
    }
  }
}

/* c[r][0..7] <- (float)((double)c[r][..] + acc) for one full row. */
SIMD static inline void flush_row8(float *c, __m256d lo, __m256d hi)
{
  __m128 c0 = _mm_loadu_ps(c), c1 = _mm_loadu_ps(c + 4);
  _mm_storeu_ps(c, _mm256_cvtpd_ps(_mm256_add_pd(_mm256_cvtps_pd(c0), lo)));
  _mm_storeu_ps(c + 4, _mm256_cvtpd_ps(_mm256_add_pd(_mm256_cvtps_pd(c1), hi)));
}

/* FMR x NR microkernel over one KC block: 12 double accumulators of 4
   lanes, one FMA per (row, half-row) per k step, then a masked flush of the
   [rows] x [cols] corner that lies inside C. */
SIMD static void kern_f32(const double *ap, const float *bp, long kcur, float *c, long ldc,
                          long rows, long cols)
{
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();
  for (long p = 0; p < kcur; p++) {
    __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(bp)), b1 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
    __m256d a;
#define ROW(r, lo, hi)                   \
    a = _mm256_broadcast_sd(ap + r);     \
    lo = _mm256_fmadd_pd(a, b0, lo);     \
    hi = _mm256_fmadd_pd(a, b1, hi);
    ROW(0, c00, c01) ROW(1, c10, c11) ROW(2, c20, c21)
    ROW(3, c30, c31) ROW(4, c40, c41) ROW(5, c50, c51)
#undef ROW
    ap += FMR;
    bp += NR;
  }
  if (rows == FMR && cols == NR) {
    flush_row8(c, c00, c01);
    flush_row8(c + ldc, c10, c11);
    flush_row8(c + 2 * ldc, c20, c21);
    flush_row8(c + 3 * ldc, c30, c31);
    flush_row8(c + 4 * ldc, c40, c41);
    flush_row8(c + 5 * ldc, c50, c51);
  } else {
    double acc[FMR][NR];
    __m256d all[FMR][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                           {c30, c31}, {c40, c41}, {c50, c51}};
    for (long r = 0; r < FMR; r++) {
      _mm256_storeu_pd(acc[r], all[r][0]);
      _mm256_storeu_pd(acc[r] + 4, all[r][1]);
    }
    for (long r = 0; r < rows; r++)
      for (long j = 0; j < cols; j++)
        c[r * ldc + j] = (float)((double)c[r * ldc + j] + acc[r][j]);
  }
}

/* One lane's share of C: rows [row_lo .. row_hi], with the same
   jc -> pc -> ic block sweep as blas.ml. [ap] holds
   MC*KC doubles, [bp] NC*KC floats. */
SIMD static void sgemm_lane(int ta, int tb, double alpha, const float *a, long ac, const float *b,
                       long bc, float *c, long k, long n, long row_lo, long row_hi,
                       double *ap, float *bp)
{
  for (long jc = 0; jc < n; jc += NC) {
    long ncur = lmin(NC, n - jc);
    for (long pc = 0; pc < k; pc += KC) {
      long kcur = lmin(KC, k - pc);
      pack_b(tb, b, bc, pc, kcur, jc, ncur, bp);
      for (long ic = row_lo; ic <= row_hi; ic += MC) {
        long mcur = lmin(MC, row_hi - ic + 1);
        pack_a(ta, alpha, a, ac, ic, mcur, pc, kcur, ap);
        for (long pj = 0; pj * NR < ncur; pj++) {
          long cols = lmin(NR, ncur - pj * NR);
          for (long pi = 0; pi * FMR < mcur; pi++)
            kern_f32(ap + pi * FMR * kcur, bp + pj * NR * kcur, kcur,
                     c + (ic + pi * FMR) * n + jc + pj * NR, n, lmin(FMR, mcur - pi * FMR),
                     cols);
        }
      }
    }
  }
}

/* ---------- int8 ---------- */

/* OCaml's 63-bit int: the low 63 bits of x, sign-extended. */
static inline int64_t wrap63(uint64_t x) { return (int64_t)(x << 1) >> 1; }

/* int_of_float as compiled by ocamlopt on amd64: cvttsd2si (INT64_MIN for
   NaN and out-of-range values, never undefined behaviour) then tagging. */
static inline int64_t ocaml_int_of_float(double x)
{
  return wrap63((uint64_t)_mm_cvttsd_si64(_mm_set_sd(x)));
}

/* Blas.Int8.q8, operation for operation. */
static inline int q8(double x, double inv)
{
  double v = x * inv;
  int64_t r = v >= 0.0 ? ocaml_int_of_float(v + 0.5)
                       : wrap63(0 - (uint64_t)ocaml_int_of_float(0.5 - v));
  return r > 127 ? 127 : r < -127 ? -127 : (int)r;
}

/* q8 of eight contiguous floats, as int32 lanes. For v = x * inv,
   OCaml's two branches both truncate |v| + 0.5 (0.5 - v is that sum for
   v < 0) and then negate for negative v, which is the sign of x since
   inv > 0. When every |v| + 0.5 is below 2^31 (so none is NaN) the int32
   truncation is exact and clamping to 127 before the negation equals
   OCaml's clamp after it; otherwise the scalar q8 handles all eight. */
SIMD static inline __m256i q8x8(const float *x, __m256d inv)
{
  const __m256d half = _mm256_set1_pd(0.5), lim = _mm256_set1_pd(2147483648.0);
  const __m256d absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256 xf = _mm256_loadu_ps(x);
  __m256d v0 = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(xf)), inv);
  __m256d v1 = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xf, 1)), inv);
  __m256d m0 = _mm256_add_pd(_mm256_and_pd(v0, absmask), half);
  __m256d m1 = _mm256_add_pd(_mm256_and_pd(v1, absmask), half);
  __m256d ok = _mm256_and_pd(_mm256_cmp_pd(m0, lim, _CMP_LT_OQ), _mm256_cmp_pd(m1, lim, _CMP_LT_OQ));
  if (_mm256_movemask_pd(ok) != 0xF) {
    double d = _mm256_cvtsd_f64(inv);
    int32_t q[NR];
    for (int c = 0; c < NR; c++) q[c] = q8(x[c], d);
    return _mm256_loadu_si256((const __m256i *)q);
  }
  __m256i t = _mm256_inserti128_si256(_mm256_castsi128_si256(_mm256_cvttpd_epi32(m0)),
                                      _mm256_cvttpd_epi32(m1), 1);
  return _mm256_sign_epi32(_mm256_min_epi32(t, _mm256_set1_epi32(127)), _mm256_castps_si256(xf));
}

/* q8 of row p of an NR-wide column panel of op(B); columns past [cols]
   are q = 0. */
SIMD static inline __m256i q8_row(int trans, const float *b, long bc, long p, long col0,
                                  long cols, double inv, __m256d vinv)
{
  if (!trans && cols == NR) return q8x8(b + p * bc + col0, vinv);
  int32_t q[NR];
  for (long c = 0; c < NR; c++)
    q[c] = c >= cols ? 0 : q8(trans ? b[(col0 + c) * bc + p] : b[p * bc + col0 + c], inv);
  return _mm256_loadu_si256((const __m256i *)q);
}

/* Quantize op(B)[p0 .. p0+kcur-1, j0 .. j0+ncur-1] into NR-wide panels of
   int16 k-pairs: for pair kk and column c, [2c] holds row 2kk and [2c+1]
   row 2kk+1 (zero past kcur), the operand layout of vpmaddwd. Columns past
   [ncur] pack as q = 0. */
SIMD static void pack_qb(int trans, const float *b, long bc, long p0, long kcur, long j0,
                         long ncur, double inv, int16_t *dst)
{
  long kp = (kcur + 1) / 2;
  __m256d vinv = _mm256_set1_pd(inv);
  const __m256i lo16 = _mm256_set1_epi32(0xFFFF);
  for (long pj = 0; pj * NR < ncur; pj++) {
    int16_t *d = dst + pj * kp * 2 * NR;
    long col0 = j0 + pj * NR;
    long cols = lmin(NR, ncur - pj * NR);
    for (long kk = 0; kk < kp; kk++) {
      long p = p0 + 2 * kk;
      __m256i q0 = q8_row(trans, b, bc, p, col0, cols, inv, vinv);
      __m256i q1 = 2 * kk + 1 < kcur ? q8_row(trans, b, bc, p + 1, col0, cols, inv, vinv)
                                     : _mm256_setzero_si256();
      _mm256_storeu_si256((__m256i *)(d + kk * 2 * NR),
                          _mm256_or_si256(_mm256_and_si256(q0, lo16), _mm256_slli_epi32(q1, 16)));
    }
  }
}

/* MR x NR exact int32 dot products of one KC block: [apair] holds, per
   k-pair, one (lo = row 2kk, hi = row 2kk+1) int16 pair per row. */
SIMD static void kern_q8(const int32_t *apair, const int16_t *bq, long kp, int32_t out[MR][NR])
{
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256();
  __m256i c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256();
  for (long kk = 0; kk < kp; kk++) {
    __m256i bv = _mm256_loadu_si256((const __m256i *)(bq + kk * 2 * NR));
    const int32_t *a = apair + kk * MR;
    c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(bv, _mm256_set1_epi32(a[0])));
    c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(bv, _mm256_set1_epi32(a[1])));
    c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(bv, _mm256_set1_epi32(a[2])));
    c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(bv, _mm256_set1_epi32(a[3])));
  }
  _mm256_storeu_si256((__m256i *)out[0], c0);
  _mm256_storeu_si256((__m256i *)out[1], c1);
  _mm256_storeu_si256((__m256i *)out[2], c2);
  _mm256_storeu_si256((__m256i *)out[3], c3);
}

/* c <- (float)(((double)c + sw * (double)dot) + badd), as in blas.ml. */
SIMD static void qflush(float *c, const int32_t *dot, long cols, double sw, double badd)
{
  if (cols == NR) {
    __m256d vsw = _mm256_set1_pd(sw), vb = _mm256_set1_pd(badd);
    __m256i d = _mm256_loadu_si256((const __m256i *)dot);
    for (int h = 0; h < 2; h++) {
      __m128i dh = h ? _mm256_extracti128_si256(d, 1) : _mm256_castsi256_si128(d);
      __m256d t = _mm256_add_pd(_mm256_cvtps_pd(_mm_loadu_ps(c + 4 * h)),
                                _mm256_mul_pd(vsw, _mm256_cvtepi32_pd(dh)));
      _mm_storeu_ps(c + 4 * h, _mm256_cvtpd_ps(_mm256_add_pd(t, vb)));
    }
  } else {
    for (long j = 0; j < cols; j++) c[j] = (float)(((double)c[j] + sw * (double)dot[j]) + badd);
  }
}

/* One lane's share of the int8 GEMM: MR-row panels [pan_lo .. pan_hi] of
   the prepacked weight (OCaml's byte layout: KC-major blocks of MR-tall
   k-major panels, ua = q + 128), full jc -> pc sweep. [bq] holds NC * KC int16; one panel's weight k-pairs (2 KB) live
   on the stack. */
SIMD static void qgemm_lane(const uint8_t *qpack, long m, long k, const double *scales,
                       const double *bias, double act_scale, int tb, const float *b, long bc,
                       float *c, long n, long pan_lo, long pan_hi, int16_t *bq)
{
  long npan = (m + MR - 1) / MR;
  double inv = 1.0 / act_scale;
  int32_t apair[KC / 2 * MR];
  int32_t dots[MR][NR];
  for (long jc = 0; jc < n; jc += NC) {
    long ncur = lmin(NC, n - jc);
    for (long pc = 0; pc < k; pc += KC) {
      long kcur = lmin(KC, k - pc), kp = (kcur + 1) / 2;
      pack_qb(tb, b, bc, pc, kcur, jc, ncur, inv, bq);
      for (long pi = pan_lo; pi <= pan_hi; pi++) {
        const uint8_t *ap = qpack + npan * MR * pc + pi * MR * kcur;
        for (long kk = 0; kk < kp; kk++)
          for (long r = 0; r < MR; r++) {
            int lo = ap[2 * kk * MR + r] - 128;
            int hi = 2 * kk + 1 < kcur ? ap[(2 * kk + 1) * MR + r] - 128 : 0;
            apair[kk * MR + r] = (int32_t)((uint32_t)(uint16_t)lo | ((uint32_t)(uint16_t)hi << 16));
          }
        long row0 = pi * MR, rows = lmin(MR, m - row0);
        for (long pj = 0; pj * NR < ncur; pj++) {
          kern_q8(apair, bq + pj * kp * 2 * NR, kp, dots);
          for (long r = 0; r < rows; r++) {
            long i = row0 + r;
            double badd = pc == 0 && bias ? bias[i] : 0.0;
            qflush(c + i * n + jc + pj * NR, dots[r], lmin(NR, ncur - pj * NR),
                   scales[i] * act_scale, badd);
          }
        }
      }
    }
  }
}

value cb_simd_supported(value unit)
{
  (void)unit;
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"));
}

#else /* no x86-64 SIMD: Blas never calls the kernels below */

value cb_simd_supported(value unit)
{
  (void)unit;
  return Val_false;
}

#endif

#define F32(v) ((float *)Caml_ba_data_val(v))

value cb_sgemm_lane(value ta, value tb, double alpha, value a, intnat ac, value b, intnat bc,
                    value c, intnat k, intnat n, intnat row_lo, intnat row_hi, value ap,
                    value bp)
{
#if defined(__x86_64__) && defined(__GNUC__)
  sgemm_lane(Bool_val(ta), Bool_val(tb), alpha, F32(a), ac, F32(b), bc, F32(c), k, n, row_lo,
             row_hi, (double *)Caml_ba_data_val(ap), (float *)Caml_ba_data_val(bp));
#else
  (void)ta; (void)tb; (void)alpha; (void)a; (void)ac; (void)b; (void)bc; (void)c; (void)k;
  (void)n; (void)row_lo; (void)row_hi; (void)ap; (void)bp;
#endif
  return Val_unit;
}

value cb_sgemm_lane_byte(value *argv, int argn)
{
  (void)argn;
  return cb_sgemm_lane(argv[0], argv[1], Double_val(argv[2]), argv[3], Long_val(argv[4]),
                       argv[5], Long_val(argv[6]), argv[7], Long_val(argv[8]),
                       Long_val(argv[9]), Long_val(argv[10]), Long_val(argv[11]), argv[12],
                       argv[13]);
}

value cb_qgemm_lane(value qpack, intnat m, intnat k, value scales, value bias, value has_bias,
                    double act_scale, value tb, value b, intnat bc, value c, intnat n,
                    intnat pan_lo, intnat pan_hi, value bq)
{
#if defined(__x86_64__) && defined(__GNUC__)
  qgemm_lane((const uint8_t *)Caml_ba_data_val(qpack), m, k, (const double *)scales,
             Bool_val(has_bias) ? (const double *)bias : NULL, act_scale, Bool_val(tb), F32(b),
             bc, F32(c), n, pan_lo, pan_hi, (int16_t *)Caml_ba_data_val(bq));
#else
  (void)qpack; (void)m; (void)k; (void)scales; (void)bias; (void)has_bias; (void)act_scale;
  (void)tb; (void)b; (void)bc; (void)c; (void)n; (void)pan_lo; (void)pan_hi; (void)bq;
#endif
  return Val_unit;
}

value cb_qgemm_lane_byte(value *argv, int argn)
{
  (void)argn;
  return cb_qgemm_lane(argv[0], Long_val(argv[1]), Long_val(argv[2]), argv[3], argv[4], argv[5],
                       Double_val(argv[6]), argv[7], argv[8], Long_val(argv[9]), argv[10],
                       Long_val(argv[11]), Long_val(argv[12]), Long_val(argv[13]), argv[14]);
}
