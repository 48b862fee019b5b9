(* The repository benchmark: trace -> hit rate against the simulator
   (fig14-offline) and a real-socket daemon under two traffic mixes
   (serve-mixed, serve-hrd). See README.md for the metrics and why each
   workload exists; run.py builds this program and runs it. *)

let domains = 2
let clock = Unix.gettimeofday
let spec = Gen.spec

(* --- small statistics --- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* U-Net multiply-accumulates per image, from the layer shapes: a conv
   layer's weight count times its output area, a transposed conv's times
   its input area, plus the conditioning MLP. *)
let unet_macs ~image_size ~downs ~ups ~cond =
  let numel p = Param.numel p in
  let s = ref image_size and macs = ref 0 in
  Array.iter
    (fun ((c : Layers.conv2d), _) ->
      s := !s / c.Layers.stride;
      macs := !macs + (numel c.Layers.weight * !s * !s))
    downs;
  Array.iter
    (fun ((c : Layers.conv_transpose2d), _, _) ->
      macs := !macs + (numel c.Layers.tweight * !s * !s);
      s := !s * c.Layers.tstride)
    ups;
  Option.iter
    (fun ((a : Layers.linear), (b : Layers.linear), (c : Layers.linear)) ->
      macs := !macs + numel a.Layers.lweight + numel b.Layers.lweight + numel c.Layers.lweight)
    cond;
  float_of_int !macs

let teacher_macs (m : Gate.models) =
  unet_macs ~image_size:(Cbgan.model_config m.Gate.teacher).Cbgan.image_size
    ~downs:(Cbgan.generator_downs m.Gate.teacher) ~ups:(Cbgan.generator_ups m.Gate.teacher)
    ~cond:(Cbgan.generator_cond m.Gate.teacher)

let student_macs (m : Gate.models) =
  unet_macs ~image_size:(Student.image_size m.Gate.student)
    ~downs:(Student.student_downs m.Gate.student) ~ups:(Student.student_ups m.Gate.student)
    ~cond:(Student.student_cond m.Gate.student)

(* --- run state shared by the workloads --- *)

type result = {
  mutable setup : float list;
  mutable e2e : (string * float * string) list;  (** name, value, unit *)
  mutable layers : (string * float) list;
  verdicts : (string, int) Hashtbl.t;  (** failure cause -> count *)
  mutable attempted : int;
  mutable gate_errors : string list;
  mutable notes : string list;  (** human-readable lines printed before the result *)
}

let res =
  {
    setup = [];
    e2e = [];
    layers = [];
    verdicts = Hashtbl.create 8;
    attempted = 0;
    gate_errors = [];
    notes = [];
  }

let e2e name v unit = res.e2e <- res.e2e @ [ (name, v, unit) ]
let layer name v = res.layers <- res.layers @ [ (name, v) ]
let note fmt = Printf.ksprintf (fun s -> res.notes <- res.notes @ [ s ]) fmt
let gate_error fmt = Printf.ksprintf (fun s -> res.gate_errors <- res.gate_errors @ [ s ]) fmt
let failed () = Hashtbl.fold (fun _ n acc -> acc + n) res.verdicts 0

let record_verdict ~id v =
  res.attempted <- res.attempted + 1;
  if Gate.breaks_gate v && List.length res.gate_errors < 5 then
    gate_error "%s: %s" id
      (match v with Gate.Wrong why -> "wrong answer: " ^ why | _ -> Option.get (Gate.cause v));
  Option.iter
    (fun c -> Hashtbl.replace res.verdicts c (1 + Option.value (Hashtbl.find_opt res.verdicts c) ~default:0))
    (Gate.cause v)

(* Set up [reps] times and keep the last; setup_s is the median. *)
let timed_setups reps f =
  let rec go k =
    let t0 = clock () in
    let v = f ~last:(k = reps) in
    res.setup <- (clock () -. t0) :: res.setup;
    if k = reps then v else go (k + 1)
  in
  go 1

(* The host's speed shifts for tens of seconds at a time (hypervisor steal,
   co-tenants), and a shift only ever slows the program down. So a run
   measures in repetitions spread over its time, each a complete measurement
   of the workload, and each end-to-end metric is the best repetition's:
   the highest rate or the lowest latency. A repetition run while the host
   was slow then costs nothing, as long as one repetition of the run was
   not. *)
type better = Higher | Lower

let best_of_reps (metrics : (string * string * better) list) (reps : (string * float) list list) =
  List.iter
    (fun (name, unit, better) ->
      let vs =
        List.filter (fun v -> Float.is_finite v) (List.filter_map (List.assoc_opt name) reps)
      in
      let v =
        match (vs, better) with
        | [], _ ->
          gate_error "%s: no repetition measured it" name;
          0.0
        | v :: rest, Higher -> List.fold_left Float.max v rest
        | v :: rest, Lower -> List.fold_left Float.min v rest
      in
      e2e name v unit)
    metrics

let rep_metrics =
  [ ("cbox_accesses_per_s", "1/s", Higher); ("lat_p50_ms", "ms", Lower); ("sat_rps", "1/s", Higher) ]

(* p95 latency, best repetition, is printed and is a per-layer metric of
   the traced run, but not gated: a stretch of heavy hypervisor steal can
   last a whole run, and in one on serve-hrd every repetition's p95 rose
   2.4x where p50 rose 1.3x. *)
let report_p95 ~traced reps =
  let p95 = List.fold_left (fun acc r -> Float.min acc (List.assoc "lat_p95_ms" r)) infinity reps in
  note "lat_p95_ms: %.4g ms (best repetition; not gated)" p95;
  if traced then layer "lat_p95_ms" p95

let write_checkpoints wd =
  let teacher_path = Filename.concat wd "teacher.ckpt" in
  let student_path = Filename.concat wd "student.ckpt" in
  Cbgan.save (Gen.teacher ()) teacher_path;
  Student.save (Gen.student ()) student_path;
  (teacher_path, student_path)

let probe_gate ~probe_ref models =
  match Gate.check_probe ~reference:(Gate.read_probe_ref probe_ref) models with
  | Ok () -> ()
  | Error why -> gate_error "probe: %s" why

(* Every (geometry, trace) pair's Multicachesim miss count must equal a
   Cache.access replay. Returns the accesses and misses of all pairs. *)
let sim_gate (items : (Cache.config * int array) list) =
  List.fold_left
    (fun (acc, misses) ((cache : Cache.config), trace) ->
      let sim =
        Multicachesim.create ~sets:cache.Cache.sets ~ways:cache.Cache.ways
          ~block_bytes:cache.Cache.block_bytes
      in
      let m = Multicachesim.run sim trace in
      let expect = Gate.replay_misses cache trace in
      if m <> expect then
        gate_error "simulator: %d misses on %s, Cache replay gives %d" m (Cache.config_name cache) expect;
      (acc + Array.length trace, misses + m))
    (0, 0) items

(* Simulator throughput samples: passes over (up to 384) pairs, one run of
   each per pass, for at least [budget_s] and [min_passes]. Callers take
   the median pass of each repetition. *)
let sim_passes ?(budget_s = 0.5) ?(min_passes = 5) (items : (Cache.config * int array) list) =
  let sims =
    List.filteri (fun i _ -> i < 384) items
    |> List.map (fun ((cache : Cache.config), trace) ->
           ( trace,
             Multicachesim.create ~sets:cache.Cache.sets ~ways:cache.Cache.ways
               ~block_bytes:cache.Cache.block_bytes ))
  in
  let accesses = List.fold_left (fun acc (t, _) -> acc + Array.length t) 0 sims in
  let t_start = clock () and rates = ref [] in
  while List.length !rates < min_passes || clock () -. t_start < budget_s do
    let busy =
      List.fold_left
        (fun acc (trace, sim) ->
          Multicachesim.reset sim;
          let t0 = clock () in
          ignore (Span.with_ "cachesim.run" (fun () -> Multicachesim.run sim trace));
          acc +. (clock () -. t0))
        0.0 sims
    in
    rates := (float_of_int accesses /. busy) :: !rates
  done;
  !rates

(* The simulator's rate is reported, with the CBox/simulator ratio, but
   not gated: a single-threaded loop, it follows the host's clock, which
   moved it by a third between runs minutes apart. *)
let cachesim_layers ~rate (acc, misses) =
  layer "cachesim.accesses_per_s" rate;
  layer "cachesim.run_ms" (Span.mean_ms "cachesim.run");
  layer "cachesim.accesses" (float_of_int acc);
  layer "cachesim.misses" (float_of_int misses)

let infer_layers models =
  let imgs b = float_of_int (Option.value (Hashtbl.find_opt Gate.images b) ~default:0) in
  let per_image span b = ratio (1000.0 *. Span.total_s span) (imgs b) in
  let f32_s = Span.total_s "infer.float32" and q_s = Span.total_s "infer.int8" in
  let sq_s = Span.total_s "infer.student-int8" in
  let tm = teacher_macs models and sm = student_macs models in
  layer "tensor.float32_gmac_per_s" (ratio (tm *. imgs "float32") (1e9 *. f32_s));
  layer "infer.float32_ms_per_image" (per_image "infer.float32" "float32");
  layer "infer.synthesize_ms" (Span.mean_ms "infer.float32");
  layer "infer.batches" (float_of_int !Gate.batches);
  layer "tensor.int8_gmac_per_s"
    (ratio ((tm *. imgs "int8") +. (sm *. imgs "student-int8")) (1e9 *. (q_s +. sq_s)));
  layer "infer.int8_ms_per_image" (per_image "infer.int8" "int8");
  layer "infer.student_int8_ms_per_image" (per_image "infer.student-int8" "student-int8")

let heatmap_layers () =
  layer "heatmap.of_trace_ms" (Span.mean_ms "heatmap.of_trace");
  layer "heatmap.hit_rate_ms" (Span.mean_ms "heatmap.hit_rate");
  layer "heatmap.images"
    (float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) Gate.images 0))

let serve_stat_names =
  [ "shed"; "degraded"; "errors"; "backend.float32"; "backend.int8"; "backend.student";
    "backend.student-int8"; "backend.hrd"; "backend.stm" ]

(* --- fig14-offline --- *)

(* A repetition is a window of 3 consecutive traces (6-9 s). Every
   window of the run counts, overlapping ones too, so that the fastest
   9 s of the run is found wherever it starts. *)
let fig14_window = 3

let fig14 ~wd ~probe_ref ~seed ~seconds ~traced =
  let pairs = ref [||] in
  let teacher, (teacher_path, student_path) =
    timed_setups 5 (fun ~last:_ ->
        pairs := Gen.fig14_pairs seed;
        let paths = write_checkpoints wd in
        let teacher = Gen.teacher () in
        Cbgan.load teacher (fst paths);
        (teacher, paths))
  in
  let pairs = !pairs in
  let synthesize cache access =
    Cbox_infer.synthesize teacher spec ~batch_size:Gate.batch_size ~cache access
  in
  (* One untimed trace first, so lazy set-up (workspace arena, domain
     pool) is not charged to the first timed trace. *)
  (let cache, trace = pairs.(0) in
   ignore (synthesize cache (Heatmap.of_trace spec trace)));
  let ws0 = Workspace.alloc_count () in
  let t_start = clock () in
  let lats = ref [] and sims = ref [] in
  let i = ref 0 in
  while !i < 2 * fig14_window || clock () -. t_start < seconds do
    let cache, trace = pairs.(!i mod Array.length pairs) in
    (* The traced run records spans on every other trace, so the untraced
       ones measure the tracing overhead. *)
    Span.enabled := traced && !i mod 2 = 1;
    let t0 = clock () in
    let ok =
      Span.with_ ~req:!i "fig14.trace" (fun () ->
          let access = Span.with_ ~req:!i "heatmap.of_trace" (fun () -> Heatmap.of_trace spec trace) in
          Gate.count_images "float32" (List.length access);
          let miss = Span.with_ ~req:!i "infer.float32" (fun () -> synthesize cache access) in
          let raw = Span.with_ ~req:!i "heatmap.hit_rate" (fun () -> Heatmap.hit_rate spec ~access ~miss) in
          Cbox_infer.validate_hit_rate raw)
    in
    let dt = clock () -. t0 in
    Span.enabled := false;
    (match ok with
    | Ok _ -> record_verdict ~id:"" Gate.Answer
    | Error why -> record_verdict ~id:(Printf.sprintf "trace %d" !i) (Gate.Wrong why));
    lats := (!i, dt) :: !lats;
    incr i;
    (* After every window's worth of traces, the simulator on all 12 pairs,
       so every sample simulates the same traces and geometry mix: the
       pooled rate of the median pass. *)
    if !i mod fig14_window = 0 then begin
      Span.enabled := traced;
      sims := median (sim_passes ~budget_s:0.0 ~min_passes:41 (Array.to_list pairs)) :: !sims;
      Span.enabled := false
    end
  done;
  let in_order = Array.of_list (List.rev_map snd !lats) in
  let windows =
    List.init (Array.length in_order - fig14_window + 1) (fun j ->
        let w = Array.to_list (Array.sub in_order j fig14_window) in
        let ms = List.map (fun dt -> 1000.0 *. dt) w in
        [ ("cbox_accesses_per_s", float_of_int Gen.fig14_trace_len /. median w);
          ("lat_p50_ms", median ms);
          ("lat_p95_ms", quantile ms 0.95);
          ("sat_rps", float_of_int fig14_window /. List.fold_left ( +. ) 0.0 w) ])
  in
  let rss = vm_hwm_mb "self" in
  let sim = sim_gate (Array.to_list pairs) in
  let models = Gate.load_models ~teacher_path ~student_path in
  probe_gate ~probe_ref models;
  let cbox = List.fold_left (fun acc w -> Float.max acc (List.assoc "cbox_accesses_per_s" w)) 0.0 windows in
  let sim_rate = List.fold_left Float.max 0.0 !sims in
  note "fig14-offline: %d traces of %d accesses, best of %d windows of %d, float32 teacher at batch %d, %d domains"
    !i Gen.fig14_trace_len (List.length windows) fig14_window Gate.batch_size domains;
  note "CBox/simulator throughput ratio: %.3g (= %.4g / %.4g accesses/s, best window / best of %d simulator samples); the paper reports 1.67"
    (cbox /. sim_rate) cbox sim_rate (List.length !sims);
  report_p95 ~traced windows;
  if not traced then begin
    best_of_reps rep_metrics windows;
    e2e "peak_rss_mb" rss "MB"
  end
  else begin
    let traced_lat = List.filter_map (fun (k, dt) -> if k mod 2 = 1 then Some dt else None) !lats in
    let plain_lat = List.filter_map (fun (k, dt) -> if k mod 2 = 0 then Some dt else None) !lats in
    infer_layers models;
    layer "tensor.ws_allocs" (float_of_int (Workspace.alloc_count () - ws0));
    cachesim_layers ~rate:sim_rate sim;
    heatmap_layers ();
    layer "bench.trace_overhead_frac" (ratio (median traced_lat) (median plain_lat) -. 1.0)
  end

(* --- serve workloads --- *)

type daemon = { pid : int; socket : string }

let daemon_alive = ref None

let kill_daemon () =
  match !daemon_alive with
  | None -> ()
  | Some d ->
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    daemon_alive := None

let call socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
      output_string oc line;
      flush oc;
      input_line ic)

let stats d =
  match Sjson.parse (call d.socket "{\"op\":\"stats\"}\n") with
  | Ok j -> j
  | Error e -> failwith ("stats reply: " ^ e)

let stat j k = Option.value (Option.bind (Sjson.member k j) Sjson.to_float) ~default:0.0

let serve_stat j = function
  | "errors" ->
    (match j with
    | Sjson.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          if String.starts_with ~prefix:"err_" k then acc +. Option.value (Sjson.to_float v) ~default:0.0
          else acc)
        0.0 kvs
    | _ -> 0.0)
  | "shed" -> stat j "shed"
  | "degraded" -> stat j "degraded_count"
  | name ->
    (* backend.<name> -> backend_<name with '-' as '_'> *)
    let b = String.sub name 8 (String.length name - 8) in
    stat j ("backend_" ^ String.map (fun c -> if c = '-' then '_' else c) b)

let start_daemon ~exe ~wd ~teacher_path ~student_path =
  let socket = Filename.concat wd "cb.sock" in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"CACHEBOX_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let log = Unix.openfile (Filename.concat wd "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [| exe; "serve"; "--socket"; socket; "--checkpoint"; teacher_path; "--student"; student_path;
       "--domains"; string_of_int domains |]
  in
  let pid = Unix.create_process_env exe argv env null log log in
  Unix.close log;
  Unix.close null;
  let d = { pid; socket } in
  daemon_alive := Some d;
  let t0 = clock () in
  let rec ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      daemon_alive := None;
      failwith "cachebox serve exited during start (see daemon.log)");
    match call socket "{\"op\":\"health\"}\n" with
    | _ -> ()
    | exception (Unix.Unix_error _ | End_of_file) ->
      if clock () -. t0 > 120.0 then failwith "cachebox serve not ready after 120 s";
      Unix.sleepf 0.005;
      ready ()
  in
  ready ();
  d

let stop_daemon d =
  (try ignore (call d.socket "{\"op\":\"shutdown\"}\n") with _ -> ());
  let t0 = clock () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when clock () -. t0 < 20.0 ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ -> kill_daemon ()
    | _ -> daemon_alive := None
  in
  wait ()

type serve_cfg = {
  block : (string * int * int) list;
  rate : float;  (** open-loop arrivals per second *)
  order_seed : int;  (** fixes the open-loop schedule and the class order *)
  outstanding : int;  (** closed-loop requests in flight *)
  pool : int;  (** distinct requests the closed loop cycles through *)
  replay : int;  (** request lines replayed in process by the traced run *)
  reps : int;  (** repetitions of the two phases *)
}

let serve_cfg = function
  | "serve-mixed" ->
    { block = Gen.mixed_block; rate = 10.0; order_seed = 7; outstanding = 8; pool = 256; replay = 24; reps = 3 }
  | _ ->
    { block = Gen.hrd_block; rate = 50.0; order_seed = 11; outstanding = 8; pool = 256; replay = 256; reps = 5 }

(* A run is [cfg.reps] repetitions of an open-loop phase and a
   closed-loop phase. Each repetition's open loop has at least 210
   requests, so its p95 has 10 samples beyond it. *)
let serve ~wd ~exe ~probe_ref ~workload ~seed ~seconds ~traced =
  let cfg = serve_cfg workload in
  let serve_reps = cfg.reps in
  let per_rep = max 210 (int_of_float (cfg.rate *. 0.6 *. seconds /. float_of_int serve_reps)) in
  let n_open = serve_reps * per_rep in
  let closed_s =
    Float.max 2.0 ((seconds -. (float_of_int n_open /. cfg.rate)) /. float_of_int serve_reps)
  in
  let reqs = ref [||] in
  let daemon, teacher_path, student_path =
    timed_setups 3 (fun ~last ->
        Gen.make_workload_traces ();
        reqs := Gen.requests ~seed ~order_seed:cfg.order_seed ~block:cfg.block (n_open + cfg.pool);
        let teacher_path, student_path = write_checkpoints wd in
        let d = start_daemon ~exe ~wd ~teacher_path ~student_path in
        if not last then stop_daemon d;
        (d, teacher_path, student_path))
  in
  let reqs = !reqs in
  (* Request lines are formatted outside the measured phases, so the load
     generator only copies bytes while the daemon works: the closed-loop
     pool here, each repetition's open-loop requests before it starts.
     Open-loop request i is "o<i>"; pool entry j is "c<j>", sent again each
     time the closed loop cycles through the pool. *)
  let lines = Array.make (n_open + cfg.pool) "" in
  let format i =
    let id = if i < n_open then "o" ^ string_of_int i else "c" ^ string_of_int (i - n_open) in
    lines.(i) <- Gen.line ~id reqs.(i)
  in
  for i = n_open to n_open + cfg.pool - 1 do format i done;
  let line_of (s : Loadgen.slot) = lines.(s.Loadgen.tag) in
  (* The simulator on the first open-loop requests' traces, while the
     daemon is idle: the median pass. *)
  let sim_items =
    List.init (min 384 n_open) (fun i -> (reqs.(i).Gen.cache, Gen.request_trace reqs.(i)))
  in
  let sim_rate = median (sim_passes ~budget_s:1.0 sim_items) in
  let stats0 = stats daemon in
  let conns = Array.init 2 (fun _ -> Loadgen.connect daemon.socket) in
  (* Open loop: a Poisson schedule at a fixed rate, seeded per workload
     (see Gen.requests). Closed loop: a fixed number outstanding, cycling
     a pool of distinct requests. *)
  let rng = Prng.create cfg.order_seed in
  let k = ref 0 in
  let make ci =
    let s =
      {
        Loadgen.tag = n_open + (!k mod cfg.pool);
        id = "c" ^ string_of_int (!k mod cfg.pool);
        conn = ci;
        due = clock ();
        sent = nan;
        recv = nan;
        reply = None;
      }
    in
    incr k;
    s
  in
  let reps =
    List.init serve_reps (fun r ->
        for j = 0 to per_rep - 1 do format ((r * per_rep) + j) done;
        let t = ref (clock () +. 0.05) in
        let open_slots =
          Array.init per_rep (fun j ->
              let i = (r * per_rep) + j in
              t := !t -. (log (1.0 -. Prng.float rng 1.0) /. cfg.rate);
              {
                Loadgen.tag = i;
                id = "o" ^ string_of_int i;
                conn = i mod 2;
                due = !t;
                sent = nan;
                recv = nan;
                reply = None;
              })
        in
        let t_open = clock () in
        Loadgen.open_loop conns open_slots ~line_of ~drain_s:30.0;
        let open_elapsed = clock () -. t_open in
        let closed_slots, t_end =
          Loadgen.closed_loop conns ~per_conn:(cfg.outstanding / 2) ~duration:closed_s ~drain_s:30.0
            ~make ~line_of
        in
        (* Keep only the lines the traced run replays. *)
        for j = max cfg.replay (r * per_rep) to ((r + 1) * per_rep) - 1 do lines.(j) <- "" done;
        (open_slots, open_elapsed, closed_slots, t_end))
  in
  Array.iter Loadgen.close conns;
  let stats1 = stats daemon in
  let rss = vm_hwm_mb (string_of_int daemon.pid) in
  stop_daemon daemon;
  let open_slots = Array.concat (List.map (fun (o, _, _, _) -> o) reps) in
  (* Expected answers for every distinct request that was sent. *)
  let all_slots =
    Array.to_list open_slots @ List.concat_map (fun (_, _, c, _) -> c) reps
  in
  let tags = List.sort_uniq compare (List.map (fun (s : Loadgen.slot) -> s.Loadgen.tag) all_slots) in
  let traces = Hashtbl.create 256 in
  List.iter (fun tg -> Hashtbl.replace traces tg (Gen.request_trace reqs.(tg))) tags;
  let models = Gate.load_models ~teacher_path ~student_path in
  probe_gate ~probe_ref models;
  Conv.set_wide_batch true;
  let items =
    Array.of_list
      (List.map (fun tg -> (reqs.(tg).Gen.backend, reqs.(tg).Gen.cache, Hashtbl.find traces tg)) tags)
  in
  Span.enabled := traced;
  let answers = Gate.answers models items in
  let sim = sim_gate (List.map (fun tg -> (reqs.(tg).Gen.cache, Hashtbl.find traces tg)) tags) in
  if traced then ignore (sim_passes ~budget_s:0.0 ~min_passes:1 sim_items);
  Span.enabled := false;
  let expected = Hashtbl.create 256 in
  List.iteri (fun i tg -> Hashtbl.replace expected tg answers.(i)) tags;
  let verdict (s : Loadgen.slot) =
    Gate.classify ~id:s.Loadgen.id ~expected:(Hashtbl.find expected s.Loadgen.tag) s.Loadgen.reply
  in
  let judged = List.map (fun s -> (s, verdict s)) all_slots in
  List.iter (fun ((s : Loadgen.slot), v) -> record_verdict ~id:s.Loadgen.id v) judged;
  (* Per-request record of the run, for looking into a latency figure. *)
  let oc = open_out (Filename.concat wd (Printf.sprintf "requests-%s-%d.tsv" workload seed)) in
  List.iter
    (fun ((s : Loadgen.slot), v) ->
      let r = reqs.(s.Loadgen.tag) in
      Printf.fprintf oc "%s\t%s\t%d\t%.3f\t%.3f\t%s\n" s.Loadgen.id r.Gen.backend r.Gen.len
        (1000.0 *. (s.Loadgen.sent -. s.Loadgen.due))
        (1000.0 *. (s.Loadgen.recv -. s.Loadgen.due))
        (Option.value (Gate.cause v) ~default:"ok"))
    judged;
  close_out oc;
  let good (slots : Loadgen.slot list) = List.filter (fun s -> verdict s = Gate.Answer) slots in
  let lat_ms slots =
    List.map (fun (s : Loadgen.slot) -> 1000.0 *. (s.Loadgen.recv -. s.Loadgen.due)) (good slots)
  in
  let rep_values =
    List.map
      (fun (o, _, c, t_end) ->
        let lat = lat_ms (Array.to_list o) in
        let closed_good = List.filter (fun (s : Loadgen.slot) -> s.Loadgen.recv <= t_end) (good c) in
        let acc = List.fold_left (fun acc (s : Loadgen.slot) -> acc + reqs.(s.Loadgen.tag).Gen.len) 0 closed_good in
        [ ("cbox_accesses_per_s", float_of_int acc /. closed_s);
          ("lat_p50_ms", median lat);
          ("lat_p95_ms", quantile lat 0.95);
          ("sat_rps", float_of_int (List.length closed_good) /. closed_s) ])
      reps
  in
  let best name = List.fold_left (fun acc r -> Float.max acc (List.assoc name r)) 0.0 rep_values in
  List.iteri
    (fun r (o, open_elapsed, _, _) ->
      note "%s repetition %d: open loop %d requests at %.0f/s over %.1f s (%d correct latency samples); closed loop %d outstanding on 2 connections for %.1f s"
        workload (r + 1) (Array.length o) cfg.rate open_elapsed
        (List.length (lat_ms (Array.to_list o))) cfg.outstanding closed_s)
    reps;
  note "served/simulator throughput ratio: %.3g (= %.4g accesses/s in the best repetition / %.4g accesses/s); the paper reports 1.67 for CBox"
    (best "cbox_accesses_per_s" /. sim_rate) (best "cbox_accesses_per_s") sim_rate;
  report_p95 ~traced rep_values;
  if not traced then begin
    best_of_reps rep_metrics rep_values;
    e2e "peak_rss_mb" rss "MB"
  end
  else begin
    infer_layers models;
    layer "tensor.ws_allocs" (stat stats1 "ws_allocs" -. stat stats0 "ws_allocs");
    cachesim_layers ~rate:sim_rate sim;
    heatmap_layers ();
    (* In-process replay of the first open-loop requests through the
       daemon's own request path (Serve_engine.classify_line, Batcher,
       Serve_engine.infer_batch, Sjson.to_string) on the same schedule, once
       untraced and once traced. A request's replay latency, subtracted from
       its client latency, is what the socket and the reactor cost. *)
    let k = min cfg.replay n_open in
    let lines = Array.sub lines 0 k in
    let offsets = Array.init k (fun i -> open_slots.(i).Loadgen.due -. open_slots.(0).Loadgen.due) in
    let model, student_path =
      if workload = "serve-mixed" then (Some models.Gate.teacher, Some student_path) else (None, None)
    in
    let engine = Serve_engine.create ?student_path ~spec ~model (Serve_engine.default_config ()) in
    let reply_bytes = ref [] and replay_ms = Array.make k nan in
    let pass () =
      let batcher = Batcher.create Batcher.default_config in
      let t0 = clock () and busy = ref 0.0 and next = ref 0 in
      let timed f =
        let b0 = clock () in
        f ();
        busy := !busy +. (clock () -. b0)
      in
      let admit i =
        timed (fun () ->
            match
              Span.with_ ~req:i "serve.classify" (fun () ->
                  Serve_engine.classify_line ~arrival:(t0 +. offsets.(i)) engine lines.(i))
            with
            | Serve_engine.Batchable item ->
              Batcher.push batcher ~deadline:(Serve_engine.item_deadline item) (i, item)
            | _ -> gate_error "replay: request %d is not an infer request" i)
      in
      let flush () =
        timed (fun () ->
            let batch = Batcher.take batcher in
            List.iter (fun (_, it) -> Serve_engine.set_item_pickup it (Serve_engine.now engine)) batch;
            let replies =
              Span.with_ "serve.infer_batch" (fun () -> Serve_engine.infer_batch engine (List.map snd batch))
            in
            List.iter2
              (fun (i, _) r ->
                let line = Span.with_ ~req:i "sjson.encode" (fun () -> Sjson.to_string r) in
                reply_bytes := float_of_int (String.length line) :: !reply_bytes;
                if not !Span.enabled then replay_ms.(i) <- 1000.0 *. (clock () -. t0 -. offsets.(i)))
              batch replies)
      in
      while !next < k || Batcher.length batcher > 0 do
        if !next < k && t0 +. offsets.(!next) <= clock () then begin
          admit !next;
          incr next
        end
        else if Batcher.due batcher then flush ()
        else
          let wake =
            Float.min
              (if !next < k then t0 +. offsets.(!next) else infinity)
              (Option.value (Batcher.next_flush batcher) ~default:infinity)
          in
          Unix.sleepf (Float.min 0.01 (Float.max 0.0 (wake -. clock ())))
      done;
      !busy
    in
    let plain_s = pass () in
    Span.enabled := true;
    let traced_s = pass () in
    (* The codec and the schema gate on their own, outside the schedule. *)
    Array.iteri
      (fun i line ->
        match Span.with_ ~req:i "sjson.parse" (fun () -> Sjson.parse line) with
        | Ok j -> ignore (Span.with_ ~req:i "validate.request" (fun () -> Validate.request j))
        | Error e -> gate_error "replay: %s" e)
      lines;
    Span.enabled := false;
    let su = Serve_engine.stats engine in
    layer "sjson.parse_ms" (Span.mean_ms "sjson.parse");
    layer "validate.request_ms" (Span.mean_ms "validate.request");
    layer "sjson.encode_ms" (Span.mean_ms "sjson.encode");
    layer "serve.request_bytes" (mean (Array.to_list (Array.map (fun l -> float_of_int (String.length l)) lines)));
    layer "serve.reply_bytes" (mean !reply_bytes);
    layer "baselines.hrd_ms" (Span.mean_ms "baselines.hrd");
    layer "serve.queue_ms_mean" su.Serve_stats.queue_ms_mean;
    layer "serve.batch_wait_ms_mean" su.Serve_stats.batch_ms_mean;
    layer "serve.infer_ms_mean" su.Serve_stats.infer_ms_mean;
    layer "serve.batches" (float_of_int su.Serve_stats.batches);
    layer "serve.mean_batch" su.Serve_stats.mean_batch;
    layer "serve.max_batch" (float_of_int su.Serve_stats.max_batch);
    let outside =
      List.filter_map
        (fun (s : Loadgen.slot) ->
          if s.Loadgen.tag < k then
            Some ((1000.0 *. (s.Loadgen.recv -. s.Loadgen.due)) -. replay_ms.(s.Loadgen.tag))
          else None)
        (good (Array.to_list open_slots))
    in
    layer "serve.outside_ms_mean" (mean outside);
    List.iter
      (fun name -> layer ("serve." ^ name) (serve_stat stats1 name -. serve_stat stats0 name))
      serve_stat_names;
    layer "bench.gen_lag_ms"
      (mean (Array.to_list (Array.map (fun (s : Loadgen.slot) -> 1000.0 *. (s.Loadgen.sent -. s.Loadgen.due)) open_slots)));
    layer "bench.trace_overhead_frac" (ratio traced_s plain_s -. 1.0)
  end

(* --- result --- *)

(* The per-layer metrics and their units, as declared in BENCHMARK.json. *)
let layer_units =
  [ ("tensor.float32_gmac_per_s", "GMAC/s"); ("infer.float32_ms_per_image", "ms");
    ("infer.synthesize_ms", "ms"); ("infer.batches", "count"); ("tensor.int8_gmac_per_s", "GMAC/s");
    ("infer.int8_ms_per_image", "ms"); ("infer.student_int8_ms_per_image", "ms");
    ("tensor.ws_allocs", "count"); ("cachesim.accesses_per_s", "1/s"); ("cachesim.run_ms", "ms"); ("cachesim.accesses", "count");
    ("cachesim.misses", "count"); ("heatmap.of_trace_ms", "ms"); ("heatmap.hit_rate_ms", "ms");
    ("heatmap.images", "count"); ("sjson.parse_ms", "ms"); ("validate.request_ms", "ms");
    ("sjson.encode_ms", "ms"); ("serve.request_bytes", "B"); ("serve.reply_bytes", "B");
    ("baselines.hrd_ms", "ms"); ("serve.queue_ms_mean", "ms"); ("serve.batch_wait_ms_mean", "ms");
    ("serve.infer_ms_mean", "ms"); ("serve.batches", "count"); ("serve.mean_batch", "count");
    ("serve.max_batch", "count"); ("serve.outside_ms_mean", "ms") ]
  @ List.map (fun n -> ("serve." ^ n, "count")) serve_stat_names
  @ [ ("lat_p95_ms", "ms"); ("bench.gen_lag_ms", "ms"); ("bench.sent", "count"); ("bench.completed", "count");
      ("bench.trace_overhead_frac", "frac"); ("fail_frac", "frac") ]
  @ List.map (fun c -> ("fail." ^ c, "count")) Gate.causes

let json_metrics ms =
  String.concat ", "
    (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) ms)

let meta_json () =
  (* Kbench's provenance block; stop git's upward search at the checkout. *)
  Unix.putenv "GIT_CEILING_DIRECTORIES" (Filename.dirname (Sys.getcwd ()));
  let m = String.trim (Kbench.meta_json ()) in
  let m = if String.ends_with ~suffix:"," m then String.sub m 0 (String.length m - 1) else m in
  Printf.sprintf "{%s, \"ocaml\": %S, \"domains\": %d}" m Sys.ocaml_version domains

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let wd = ref ".bench_build/run" and exe = ref "" and probe_ref = ref "perfbench/probe_ref.txt" in
  let write_ref = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "fig14-offline | serve-mixed | serve-hrd");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "1 for the traced per-layer run");
      ("--workdir", Arg.Set_string wd, "scratch directory for checkpoints and the socket");
      ("--cachebox", Arg.Set_string exe, "cachebox executable (serve workloads)");
      ("--probe-ref", Arg.Set_string probe_ref, "probe reference values");
      ("--write-probe-ref", Arg.Set_string write_ref, "write the probe reference file and exit");
    ]
    (fun a -> raise (Arg.Bad a))
    "cbbench --workload W --seed N --seconds S --trace 0|1";
  Dpool.set_domains domains;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit kill_daemon;
  (try Unix.mkdir !wd 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !write_ref <> "" then begin
    let teacher_path, student_path = write_checkpoints !wd in
    Gate.write_probe_ref !write_ref (Gate.load_models ~teacher_path ~student_path);
    exit 0
  end;
  let traced = !trace = 1 in
  (match !workload with
  | "fig14-offline" -> fig14 ~wd:!wd ~probe_ref:!probe_ref ~seed:!seed ~seconds:!seconds ~traced
  | ("serve-mixed" | "serve-hrd") as w ->
    serve ~wd:!wd ~exe:!exe ~probe_ref:!probe_ref ~workload:w ~seed:!seed ~seconds:!seconds ~traced
  | w ->
    prerr_endline ("unknown workload " ^ w);
    exit 2);
  let failed = failed () in
  if traced then begin
    layer "bench.sent" (float_of_int res.attempted);
    layer "bench.completed"
      (float_of_int (res.attempted - Option.value (Hashtbl.find_opt res.verdicts "dropped") ~default:0));
    layer "fail_frac" (float_of_int failed /. float_of_int (max 1 res.attempted));
    List.iter
      (fun c -> layer ("fail." ^ c) (float_of_int (Option.value (Hashtbl.find_opt res.verdicts c) ~default:0)))
      Gate.causes;
    Span.write (Filename.concat !wd (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
  end
  else e2e "setup_s" (median res.setup) "s";
  List.iter print_endline res.notes;
  Printf.printf "failures by cause: %s\n"
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "%s=%d" c (Option.value (Hashtbl.find_opt res.verdicts c) ~default:0)) Gate.causes));
  (* Layers a workload does not exercise read 0. *)
  let metrics =
    if traced then
      List.map
        (fun (n, u) -> (n, Option.value (List.assoc_opt n res.layers) ~default:0.0, u))
        layer_units
    else res.e2e
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.6g %s\n" n v u) metrics;
  List.iter (fun e -> Printf.printf "GATE FAILURE: %s\n" e) res.gate_errors;
  print_endline (meta_json ());
  let correct = res.gate_errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 res.attempted) failed
    (json_metrics metrics);
  kill_daemon ();
  exit (if correct then 0 else 1)
