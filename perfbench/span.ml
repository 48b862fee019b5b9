(* In-memory spans around calls into the library's layers. Recording is off
   unless [enabled] is set (the traced run); spans are only written out when
   the run ends, so tracing adds no I/O to the measured work. *)

type t = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let current = ref (-1)

let with_ ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let t0 = Unix.gettimeofday () in
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    spans := { id; parent; req; name; t0; t1 = Unix.gettimeofday () } :: !spans;
    r
  end

let of_name name = List.filter (fun s -> s.name = name) !spans
let count name = List.length (of_name name)
let total_s name = List.fold_left (fun acc s -> acc +. (s.t1 -. s.t0)) 0.0 (of_name name)

let mean_ms name =
  match count name with 0 -> 0.0 | n -> 1000.0 *. total_s name /. float_of_int n

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f}\n" s.id
            s.parent s.req s.name s.t0 s.t1)
        (List.rev !spans))
