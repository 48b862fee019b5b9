(* Negative control for the benchmark's correctness gate: the gate must
   pass the seeded models and the right replies, and must fail a perturbed
   weight and each kind of wrong reply. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let () =
  Dpool.set_domains 1;
  let reference = Gate.read_probe_ref "probe_ref.txt" in
  let student = Gen.student () in
  let teacher = Gen.teacher () in
  check "probe: seeded models match the reference"
    (Gate.check_probe ~reference (Gate.models ~teacher ~student) = Ok ());
  let perturbed name =
    let teacher = Gen.teacher () in
    let p = List.find (fun p -> p.Param.name = name) (Cbgan.generator_params teacher) in
    Tensor.set p.Param.value 0 (Tensor.get p.Param.value 0 +. 0.01);
    Gate.check_probe ~reference (Gate.models ~teacher ~student)
  in
  check "probe: a perturbed first-layer weight fails"
    (Result.is_error (perturbed "gen.down0.weight"));
  check "probe: a perturbed first-layer bias fails on the float32 output itself"
    (match perturbed "gen.down0.bias" with
    | Error why -> String.starts_with ~prefix:"teacher" why
    | Ok () -> false);
  let reply ?(id = "o1") ?(ok = true) ?(hr = "1") ?(backend = "int8") ?(degraded = false) () =
    Some
      (Printf.sprintf
         "{\"id\":%S,\"ok\":%b,\"op\":\"infer\",\"hit_rate\":%s,\"degraded\":%b,\"backend\":%S}" id ok hr
         degraded backend)
  in
  let expected = (1.0, "int8") in
  let verdict r = Gate.classify ~id:"o1" ~expected r in
  check "reply: the right answer passes" (verdict (reply ()) = Gate.Answer);
  check "reply: a wrong hit rate fails"
    (match verdict (reply ~hr:"0.99999999999999989" ()) with Gate.Wrong _ -> true | _ -> false);
  check "reply: a wrong backend fails"
    (match verdict (reply ~backend:"float32" ()) with Gate.Wrong _ -> true | _ -> false);
  check "reply: another request's reply is a reorder" (verdict (reply ~id:"o2" ()) = Gate.Reordered);
  check "reply: a missing reply is a drop" (verdict None = Gate.Dropped);
  check "reply: a degraded answer is a failure" (verdict (reply ~degraded:true ()) = Gate.Degraded);
  check "reply: a shed is counted as overloaded"
    (verdict (Some "{\"ok\":false,\"error\":\"overloaded\",\"message\":\"request queue full\"}")
    = Gate.Overloaded);
  check "gate: wrong, dropped and reordered replies break it; load outcomes do not"
    (List.for_all Gate.breaks_gate [ Gate.Wrong "x"; Gate.Dropped; Gate.Reordered ]
    && not (List.exists Gate.breaks_gate [ Gate.Overloaded; Gate.Degraded; Gate.Deadline_exceeded ]));
  let trace = (Suite.find "619.lbm_s-734B").Workload.generate 20_000 in
  let cache = Cache.config ~sets:64 ~ways:4 () in
  let sim = Multicachesim.create ~sets:64 ~ways:4 ~block_bytes:64 in
  check "simulator: Multicachesim agrees with the Cache replay"
    (Multicachesim.run sim trace = Gate.replay_misses cache trace);
  if !failures > 0 then exit 1
