(* The benchmark's correctness gate. Three checks, each against an answer
   computed independently of the code path being timed:
   - every simulator miss count against a Cache.access replay;
   - every daemon reply against the in-process public-function answer;
   - the raw generator output of a fixed probe batch against committed
     reference values (raw, because the untrained model's denormalised
     heatmaps are all zero and pin every hit rate at 1.0). *)

let spec = Gen.spec

(* --- simulator --- *)

let replay_misses (cache : Cache.config) trace =
  let c = Cache.create cache in
  Array.fold_left (fun m a -> if Cache.access c a then m else m + 1) 0 trace

(* --- replies --- *)

type verdict =
  | Answer  (** correct, non-degraded *)
  | Overloaded
  | Deadline_exceeded
  | Other_error of string
  | Dropped
  | Reordered
  | Wrong of string
  | Degraded

let causes =
  [ "overloaded"; "deadline_exceeded"; "other_error"; "dropped"; "reordered"; "wrong"; "degraded" ]

let cause = function
  | Answer -> None
  | Overloaded -> Some "overloaded"
  | Deadline_exceeded -> Some "deadline_exceeded"
  | Other_error _ -> Some "other_error"
  | Dropped -> Some "dropped"
  | Reordered -> Some "reordered"
  | Wrong _ -> Some "wrong"
  | Degraded -> Some "degraded"

(* Wrong answers, lost and reordered replies break the program's contract
   and fail the gate; sheds, deadline misses, other typed errors and
   degraded answers are load outcomes, counted as failed operations. *)
let breaks_gate = function Dropped | Reordered | Wrong _ -> true | _ -> false

let classify ~id ~expected:(hit_rate, backend) reply =
  match reply with
  | None -> Dropped
  | Some line -> (
    match Sjson.parse line with
    | Error e -> Wrong ("unparseable reply: " ^ e)
    | Ok j -> (
      let field k f = Option.bind (Sjson.member k j) f in
      match (field "id" Sjson.to_str, field "ok" Sjson.to_bool) with
      | Some rid, _ when rid <> id -> Reordered
      | _, Some false -> (
        match field "error" Sjson.to_str with
        | Some "overloaded" -> Overloaded
        | Some "deadline_exceeded" -> Deadline_exceeded
        | code -> Other_error (Option.value code ~default:"?"))
      | _, Some true -> (
        match
          (field "degraded" Sjson.to_bool, field "hit_rate" Sjson.to_float, field "backend" Sjson.to_str)
        with
        | Some true, _, _ -> Degraded
        | _, Some hr, Some b when b = backend && Float.equal hr hit_rate -> Answer
        | _, hr, b ->
          Wrong
            (Printf.sprintf "got %s/%s, expected %.17g/%s"
               (Option.fold ~none:"-" ~some:(Printf.sprintf "%.17g") hr)
               (Option.value b ~default:"-") hit_rate backend))
      | _, None -> Wrong "reply without \"ok\""))

(* --- in-process answers --- *)

type models = { teacher : Cbgan.t; tq : Qgen.t; student : Student.t; sq : Qgen.t }

let models ~teacher ~student =
  { teacher; tq = Qgen.of_model ~spec teacher; student; sq = Qgen.of_student ~spec student }

let load_models ~teacher_path ~student_path =
  let teacher = Gen.teacher () in
  Cbgan.load teacher teacher_path;
  models ~teacher ~student:(Student.load student_path)

(* Images and forward batches scored while spans are recorded, for the
   traced run's per-image and per-MAC rates. *)
let batch_size = 8
let images : (string, int) Hashtbl.t = Hashtbl.create 8
let batches = ref 0

let count_images backend n =
  if !Span.enabled then begin
    Hashtbl.replace images backend (n + Option.value (Hashtbl.find_opt images backend) ~default:0);
    batches := !batches + ((n + batch_size - 1) / batch_size)
  end

(* The answer the daemon must give for (backend, cache, trace), computed
   through the library's public functions: one cross-request group call
   per backend, the same validity gate and clamp as serving. *)
let answers models (items : (string * Cache.config * int array) array) =
  let out = Array.make (Array.length items) (nan, "") in
  let by_backend b = List.filter (fun i -> let b', _, _ = items.(i) in b' = b) (List.init (Array.length items) Fun.id) in
  List.iter
    (fun i ->
      let _, cache, trace = items.(i) in
      let hr =
        Span.with_ "baselines.hrd" (fun () ->
            Cbox_infer.baseline_hit_rate Cbox_infer.Fallback_hrd cache trace)
      in
      out.(i) <- (Option.value hr ~default:nan, "hrd"))
    (by_backend "hrd");
  let model_group backend synth =
    let rec chunks = function
      | [] -> ()
      | idx ->
        let mine = List.filteri (fun k _ -> k < 32) idx in
        let rest = List.filteri (fun k _ -> k >= 32) idx in
        let inputs =
          List.map
            (fun i ->
              let _, cache, trace = items.(i) in
              (cache, Span.with_ "heatmap.of_trace" (fun () -> Heatmap.of_trace spec trace)))
            mine
        in
        let n = List.fold_left (fun acc (_, a) -> acc + List.length a) 0 inputs in
        count_images backend n;
        let syn = Span.with_ ("infer." ^ backend) (fun () -> synth inputs) in
        List.iter2
          (fun (i, (_, access)) miss ->
            let raw = Span.with_ "heatmap.hit_rate" (fun () -> Heatmap.hit_rate spec ~access ~miss) in
            let hr = match Cbox_infer.validate_hit_rate raw with Ok v -> v | Error _ -> nan in
            out.(i) <- (hr, backend))
          (List.combine mine inputs) syn;
        chunks rest
    in
    chunks (by_backend backend)
  in
  model_group "float32" (Cbox_infer.synthesize_group models.teacher spec ~batch_size);
  model_group "int8" (Cbox_infer.qsynthesize_group models.tq spec ~batch_size);
  model_group "student-int8" (Cbox_infer.qsynthesize_group models.sq spec ~batch_size);
  out

(* --- probe reference --- *)

(* The untrained outputs all sit near -0.9 and differ by a few 1e-3, so
   errors are relative to the spread of the reference values, not to their
   magnitude; rounding changes from a reordered or fused kernel stay orders
   of magnitude below these bounds. *)
let probe_rel_bound = 1e-3
let probe_sum_bound = 1e-5
let probe_stride = 16

let probe_outputs models =
  let trace = (Suite.find "619.lbm_s-734B").Workload.generate 8_000 in
  let imgs = List.filteri (fun i _ -> i < 2) (Heatmap.of_trace spec trace) in
  let x = Cbox_dataset.batch_images spec imgs in
  let cache_params =
    Cbgan.cache_params_tensor
      [ Cache.config ~sets:64 ~ways:12 (); Cache.config ~sets:256 ~ways:4 () ]
  in
  [
    ( "teacher",
      Value.value
        (Cbgan.generator_forward models.teacher ~rng:(Prng.create 0) ~training:false ~cache_params x) );
    ("int8", Qgen.forward models.tq ~cache_params x);
    ("student-int8", Qgen.forward models.sq ~cache_params x);
  ]

(* Each output is summarised by every [probe_stride]-th raw value plus the
   sum of (value + 1) over all of them (the outputs sit near -1). *)
let summarise t =
  let a = Tensor.to_array t in
  let sampled = Array.init (Array.length a / probe_stride) (fun i -> a.(i * probe_stride)) in
  (Array.fold_left (fun acc v -> acc +. v +. 1.0) 0.0 a, sampled)

let write_probe_ref path models =
  let oc = open_out path in
  Printf.fprintf oc
    "# Raw generator outputs of the fixed probe batch (see gate.ml), for the\n\
     # seeded untrained teacher, its int8 compile and the student's int8\n\
     # compile: \"<model> sum <sum of value+1>\" then \"<model> <index> <value>\".\n";
  List.iter
    (fun (name, t) ->
      let sum, sampled = summarise t in
      Printf.fprintf oc "%s sum %.17g\n" name sum;
      Array.iteri (fun i v -> Printf.fprintf oc "%s %d %.17g\n" name (i * probe_stride) v) sampled)
    (probe_outputs models);
  close_out oc

let read_probe_ref path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; List.rev acc
    | l when String.length l = 0 || l.[0] = '#' -> go acc
    | l -> (
      match String.split_on_char ' ' l with
      | [ name; key; v ] -> go ((name, key, float_of_string v) :: acc)
      | _ -> failwith ("bad probe reference line: " ^ l))
  in
  go []

(* [Ok ()] when every model's sampled probe outputs are within
   [probe_rel_bound] of the reference, relative to the reference spread, and
   their summed mass within [probe_sum_bound]. *)
let check_probe ~reference models =
  let failures =
    List.filter_map
      (fun (name, t) ->
        let sum, sampled = summarise t in
        let refs = List.filter (fun (n, _, _) -> n = name) reference in
        let ref_sum = List.find_map (fun (_, k, v) -> if k = "sum" then Some v else None) refs in
        let ref_vals =
          List.filter_map (fun (_, k, v) -> if k = "sum" then None else Some (int_of_string k, v)) refs
        in
        let lo = List.fold_left (fun m (_, v) -> Float.min m v) infinity ref_vals in
        let hi = List.fold_left (fun m (_, v) -> Float.max m v) neg_infinity ref_vals in
        let scale = hi -. lo in
        let err =
          List.fold_left
            (fun m (i, v) ->
              let o = if i / probe_stride < Array.length sampled then sampled.(i / probe_stride) else nan in
              Float.max m (Float.abs (o -. v)))
            0.0 ref_vals
        in
        match ref_sum with
        | None -> Some (name ^ ": no reference")
        | Some rs ->
          let sum_err = Float.abs (sum -. rs) /. Float.abs rs in
          if List.length ref_vals <> Array.length sampled then
            Some (Printf.sprintf "%s: %d reference values, %d outputs" name (List.length ref_vals)
                    (Array.length sampled))
          else if not (err <= probe_rel_bound *. scale && sum_err <= probe_sum_bound) then
            Some
              (Printf.sprintf "%s: max err %.3g of the spread (bound %.0e), sum rel err %.3g (bound %.0e)"
                 name (err /. scale) probe_rel_bound sum_err probe_sum_bound)
          else None)
      (probe_outputs models)
  in
  match failures with [] -> Ok () | fs -> Error (String.concat "; " fs)
