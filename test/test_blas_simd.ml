(* The AVX2+FMA kernels against the OCaml tiled kernels, bit for bit.

   The SIMD kernels promise the exact bits of [Blas.Tiled] (same KC grid,
   same per-element accumulation order, exact products in double; exact
   int32 dots for int8), so every comparison here is on the float32 bit
   pattern — NaN against NaN being the one allowed match of unequal bits.
   The small-GEMM cutoff is forced to 0 so even 1x1x1 products go through
   the packed path of both kernels.

   On a host without AVX2+FMA [Blas.set_kernel Blas.Simd] selects [Tiled]
   and every case compares the OCaml kernel with itself. *)

let bits x = Int32.bits_of_float x

(* Elements whose float32 bits differ, counting two NaNs as equal. *)
let differing a b =
  let n = ref 0 in
  Array.iter2
    (fun x y -> if not ((Float.is_nan x && Float.is_nan y) || bits x = bits y) then incr n)
    a b;
  !n

let under kernel f =
  let k0 = Blas.kernel () in
  Blas.set_kernel kernel;
  Blas.set_small_cutoff 0;
  Fun.protect
    ~finally:(fun () ->
      Blas.set_small_cutoff 16_384;
      Blas.set_kernel k0)
    f

let check_same what a b = Alcotest.(check int) (what ^ ": differing elements") 0 (differing a b)

(* --- float32 --- *)

let gemm_out ~kernel ~domains ~trans_a ~trans_b ~alpha ~a ~b ~beta c0 =
  let c = Tensor.copy c0 in
  Dpool.with_domains domains (fun () ->
      under kernel (fun () -> Blas.gemm ~trans_a ~trans_b ~alpha ~a ~b ~beta c));
  Tensor.to_array c

let operands rng ~m ~k ~n ~trans_a ~trans_b =
  let a = Tensor.randn rng (if trans_a then [| k; m |] else [| m; k |]) in
  let b = Tensor.randn rng (if trans_b then [| n; k |] else [| k; n |]) in
  (a, b, Tensor.randn rng [| m; n |])

(* Sizes straddle the register tile (4 x 8), the MC/KC/NC blocks (64 / 256 /
   256) and 1. *)
let sizes = [ 1; 2; 3; 5; 7; 8; 9; 17; 31; 63; 65 ]
let deep = [ 1; 7; 255; 256; 257; 300; 513 ]
let alphas = [ 1.0; 0.5; -1.3 ]
let betas = [ 0.0; 1.0; 0.25 ]

let case_gen =
  QCheck.Gen.(
    tup4
      (tup3 (oneofl sizes) (oneofl deep) (oneofl (sizes @ [ 257; 300 ])))
      (tup2 bool bool)
      (tup2 (oneofl alphas) (oneofl betas))
      (int_range 0 1_000_000))

let test_float_ragged =
  QCheck.Test.make ~count:60 ~name:"simd gemm = tiled gemm, bit for bit (ragged, all trans)"
    (QCheck.make case_gen)
    (fun ((m, k, n), (trans_a, trans_b), (alpha, beta), seed) ->
      let rng = Prng.create seed in
      let a, b, c0 = operands rng ~m ~k ~n ~trans_a ~trans_b in
      let run kernel domains =
        gemm_out ~kernel ~domains ~trans_a ~trans_b ~alpha ~a ~b ~beta c0
      in
      let oracle = run Blas.Tiled 1 in
      List.for_all (fun d -> differing oracle (run Blas.Simd d) = 0) [ 1; 2; 3; 8 ])

(* Every transpose x alpha x beta combination on one shape that crosses every
   block boundary at once, at each domain count. *)
let test_float_grid () =
  let m = 67 and k = 521 and n = 263 in
  List.iter
    (fun (trans_a, trans_b) ->
      let rng = Prng.create 11 in
      let a, b, c0 = operands rng ~m ~k ~n ~trans_a ~trans_b in
      List.iter
        (fun alpha ->
          List.iter
            (fun beta ->
              let run kernel domains =
                gemm_out ~kernel ~domains ~trans_a ~trans_b ~alpha ~a ~b ~beta c0
              in
              let oracle = run Blas.Tiled 1 in
              List.iter
                (fun d ->
                  check_same
                    (Printf.sprintf "ta=%b tb=%b alpha=%g beta=%g domains=%d" trans_a trans_b
                       alpha beta d)
                    oracle (run Blas.Simd d))
                [ 1; 2; 3; 8 ])
            betas)
        alphas)
    [ (false, false); (true, false); (false, true); (true, true) ]

(* IEEE corners: signed zeros, float32 subnormals, infinities and NaN mixed
   into the operands. *)
let specials =
  [| 0.0; -0.0; 1e-40; -3e-42; 1.4e-45; infinity; neg_infinity; nan; 1.0; -2.5; 3e38; -1e-38 |]

let special_tensor rng shape =
  let t = Tensor.randn rng shape in
  Array.iteri
    (fun i _ ->
      if Prng.int rng 3 = 0 then Tensor.set t i specials.(Prng.int rng (Array.length specials)))
    (Tensor.to_array t);
  t

let test_float_specials () =
  List.iter
    (fun (m, k, n, seed) ->
      List.iter
        (fun (trans_a, trans_b) ->
          let rng = Prng.create seed in
          let a = special_tensor rng (if trans_a then [| k; m |] else [| m; k |]) in
          let b = special_tensor rng (if trans_b then [| n; k |] else [| k; n |]) in
          let c0 = special_tensor rng [| m; n |] in
          List.iter
            (fun (alpha, beta) ->
              let run kernel =
                gemm_out ~kernel ~domains:1 ~trans_a ~trans_b ~alpha ~a ~b ~beta c0
              in
              check_same
                (Printf.sprintf "%dx%dx%d ta=%b tb=%b" m k n trans_a trans_b)
                (run Blas.Tiled) (run Blas.Simd))
            [ (1.0, 0.0); (0.5, 1.0); (-1.3, 0.25) ])
        [ (false, false); (true, true) ])
    [ (5, 3, 9, 1); (13, 260, 11, 2); (4, 8, 8, 3) ];
  (* Sparse specials in otherwise finite data: most outputs stay finite, so
     subnormal and signed-zero results are compared too. *)
  let rng = Prng.create 4 in
  let a = Tensor.randn rng [| 9; 40 |] and b = Tensor.randn rng [| 40; 12 |] in
  Tensor.scale_ a 1e-20;
  Tensor.scale_ b 1e-20;
  Tensor.set a 3 (-0.0);
  Tensor.set b 7 1e-40;
  let c0 = Tensor.zeros [| 9; 12 |] in
  Tensor.set c0 0 (-0.0);
  let run kernel =
    gemm_out ~kernel ~domains:1 ~trans_a:false ~trans_b:false ~alpha:1.0 ~a ~b ~beta:1.0 c0
  in
  let oracle = run Blas.Tiled in
  Alcotest.(check bool) "underflowing products reach subnormal outputs" true
    (Array.exists (fun v -> v <> 0.0 && Float.abs v < 1.2e-38) oracle);
  check_same "subnormal outputs" oracle (run Blas.Simd)

(* The comparator must see a single 1-ulp change. *)
let test_negative_control () =
  let rng = Prng.create 5 in
  let a, b, c0 = operands rng ~m:9 ~k:33 ~n:10 ~trans_a:false ~trans_b:false in
  let out =
    gemm_out ~kernel:Blas.Simd ~domains:1 ~trans_a:false ~trans_b:false ~alpha:1.0 ~a ~b
      ~beta:0.0 c0
  in
  let perturbed = Array.copy out in
  perturbed.(17) <- Int32.float_of_bits (Int32.add (bits out.(17)) 1l);
  Alcotest.(check int) "one element off by one ulp" 1 (differing out perturbed);
  Alcotest.(check int) "NaN vs number differs" 1
    (differing [| nan; 1.0 |] [| 0.0; 1.0 |]);
  Alcotest.(check int) "+0 vs -0 differs" 1 (differing [| 0.0 |] [| -0.0 |])

(* --- int8 --- *)

let qgemm_out ~kernel ~domains ~trans_b ~qw ~act_scale ~b ~m ~n =
  let c = Tensor.zeros [| m; n |] in
  Dpool.with_domains domains (fun () ->
      under kernel (fun () -> Blas.Int8.gemm ~trans_b ~a:qw ~act_scale ~b c));
  Tensor.to_array c

let qcase ~m ~k ~n ~trans_b ~pow2 ~specials:sp seed =
  let rng = Prng.create seed in
  let w = Tensor.randn rng [| m; k |] in
  let bias = Array.init m (fun _ -> Prng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let qw = Blas.Int8.quantize ~pow2 ~bias w in
  let shape = if trans_b then [| n; k |] else [| k; n |] in
  let b = if sp then special_tensor rng shape else Tensor.randn rng shape in
  (* Activations beyond the scale's range exercise the clamp; with
     [specials] some reach 2^62..2^64 times the scale, where OCaml's
     63-bit int_of_float wraps. *)
  let act_scale = Quant.scale_of_amax 2.0 in
  if sp then
    List.iteri (fun i v -> Tensor.set b (i mod Tensor.numel b) v) [ 5e18; -5e18; 1e19 ];
  let run kernel domains = qgemm_out ~kernel ~domains ~trans_b ~qw ~act_scale ~b ~m ~n in
  let oracle = run Blas.Tiled 1 in
  List.iter
    (fun d ->
      check_same
        (Printf.sprintf "int8 %dx%dx%d tb=%b pow2=%b specials=%b domains=%d" m k n trans_b pow2
           sp d)
        oracle (run Blas.Simd d))
    [ 1; 2; 3 ]

let test_int8 () =
  List.iteri
    (fun i (m, k, n) ->
      List.iter
        (fun trans_b ->
          qcase ~m ~k ~n ~trans_b ~pow2:true ~specials:false (100 + i);
          qcase ~m ~k ~n ~trans_b ~pow2:false ~specials:false (300 + i);
          qcase ~m ~k ~n ~trans_b ~pow2:true ~specials:true (200 + i))
        [ false; true ])
    [ (1, 1, 1); (3, 5, 7); (4, 8, 8); (5, 17, 9); (17, 255, 31); (33, 257, 65); (9, 513, 263);
      (66, 300, 17) ]

(* q8's corner inputs, one per column, against OCaml's own q8 via the
   scalar kernel: NaN, infinities, half-way values and the int_of_float
   wrap region. *)
let test_int8_quantizer_corners () =
  let vals =
    [| nan; -.nan; infinity; neg_infinity; 0.5; -0.5; 1.5; -1.5; 126.5; -126.5; 127.49; 3e9;
       -3e9; 4.7e18; -4.7e18; 5e18; -5e18; 9.3e18; 1e19; -1e19; 1e30; -1e30; 0.0; -0.0; 1e-45 |]
  in
  let n = Array.length vals in
  let w = Tensor.of_array [| 3; 1 |] [| 1.0; -1.0; 0.5 |] in
  let qw = Blas.Int8.quantize ~pow2:true w in
  List.iter
    (fun (trans_b, b) ->
      let run kernel = qgemm_out ~kernel ~domains:1 ~trans_b ~qw ~act_scale:1.0 ~b ~m:3 ~n in
      check_same (Printf.sprintf "q8 corners tb=%b" trans_b) (run Blas.Tiled) (run Blas.Simd))
    [ (false, Tensor.of_array [| 1; n |] vals); (true, Tensor.of_array [| n; 1 |] vals) ]

(* --- whole forwards --- *)

let tiny_spec = Heatmap.spec ~height:32 ~width:32 ~window:8 ~overlap:0.3 ~granularity:64 ()
let teacher_config = Cbgan.default_config ~image_size:32 ~ngf:8 ~ndf:8 ()

let forward_inputs () =
  let rng = Prng.create 21 in
  let x = Tensor.rand rng [| 3; 1; 32; 32 |] ~lo:(-1.0) ~hi:1.0 in
  let c = Cache.config ~sets:64 ~ways:8 () in
  (x, Cbgan.cache_params_tensor [ c; c; c ])

let test_forwards () =
  let x, cp = forward_inputs () in
  let teacher = Cbgan.create ~seed:3 teacher_config in
  let student = Student.create ~seed:4 (Distill.student_config teacher_config) in
  (* Both conv lowerings: per-sample GEMMs nested in a sample-parallel
     region, and one whole-batch GEMM split over the lanes. *)
  let fwd name f =
    let w0 = Conv.wide_batch () in
    Fun.protect
      ~finally:(fun () -> Conv.set_wide_batch w0)
      (fun () ->
        List.iter
          (fun (wide, d) ->
            Conv.set_wide_batch wide;
            let run kernel = Dpool.with_domains d (fun () -> under kernel f) in
            check_same
              (Printf.sprintf "%s forward, wide=%b domains=%d" name wide d)
              (run Blas.Tiled) (run Blas.Simd))
          [ (false, 1); (false, 2); (true, 1); (true, 2) ])
  in
  fwd "teacher" (fun () ->
      let rng = Prng.create 0 in
      Tensor.to_array
        (Value.value (Cbgan.generator_forward teacher ~rng ~training:false ~cache_params:cp x)));
  fwd "student" (fun () ->
      Tensor.to_array (Value.value (Student.forward student ~training:false ~cache_params:cp x)));
  (* Calibration runs the float forward, so each kernel compiles its own
     int8 model: the comparison covers calibration too. *)
  fwd "int8" (fun () ->
      Tensor.to_array (Qgen.forward (Qgen.of_model ~spec:tiny_spec teacher) ~cache_params:cp x));
  fwd "student-int8" (fun () ->
      Tensor.to_array
        (Qgen.forward (Qgen.of_student ~spec:tiny_spec student) ~cache_params:cp x))

let qc = QCheck_alcotest.to_alcotest

let suite =
  ( "blas-simd",
    [
      qc test_float_ragged;
      Alcotest.test_case "float32: trans x alpha x beta x domains" `Quick test_float_grid;
      Alcotest.test_case "float32: IEEE specials" `Quick test_float_specials;
      Alcotest.test_case "comparator negative control" `Quick test_negative_control;
      Alcotest.test_case "int8: ragged shapes, scales, bias, specials" `Quick test_int8;
      Alcotest.test_case "int8: quantizer corners" `Quick test_int8_quantizer_corners;
      Alcotest.test_case "teacher/student/int8 forwards" `Quick test_forwards;
    ] )
