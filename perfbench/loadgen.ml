(* Single-threaded load generator: one select loop over at most two
   connections to the daemon. Replies are matched to requests by
   per-connection FIFO order (the daemon's delivery contract); the reply's
   own "id" is checked later, so a reordered reply shows up as a mismatch. *)

type slot = {
  tag : int;  (** index of the request in the run's pool *)
  id : string;
  conn : int;
  due : float;  (** when the request was scheduled to be sent *)
  mutable sent : float;  (** when the generator queued it *)
  mutable recv : float;
  mutable reply : string option;
}

type conn = {
  fd : Unix.file_descr;
  outq : string Queue.t;
  mutable off : int;  (** bytes of the head of [outq] already written *)
  inbuf : Buffer.t;
  waiting : slot Queue.t;  (** sent, reply still owed, in send order *)
  mutable closed : bool;
}

let clock = Unix.gettimeofday

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  {
    fd;
    outq = Queue.create ();
    off = 0;
    inbuf = Buffer.create 4096;
    waiting = Queue.create ();
    closed = false;
  }

let close c = if not c.closed then (c.closed <- true; Unix.close c.fd)

let send c slot line =
  slot.sent <- clock ();
  Queue.push line c.outq;
  Queue.push slot c.waiting

let rec flush c =
  if (not c.closed) && not (Queue.is_empty c.outq) then begin
    let s = Queue.peek c.outq in
    match Unix.single_write_substring c.fd s c.off (String.length s - c.off) with
    | n ->
      c.off <- c.off + n;
      if c.off = String.length s then begin
        ignore (Queue.pop c.outq);
        c.off <- 0;
        flush c
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close c
  end

let chunk = Bytes.create 65_536

(* Read what is available; hand every complete reply line to [on_reply]
   with the request it answers. A reply with no request owed is dropped
   here and surfaces as a mismatch of the requests around it. *)
let read c ~on_reply =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close c
  | n ->
    let now = clock () in
    Buffer.add_subbytes c.inbuf chunk 0 n;
    let s = Buffer.contents c.inbuf in
    let rec lines start =
      match String.index_from_opt s start '\n' with
      | None -> start
      | Some j ->
        (match Queue.take_opt c.waiting with
        | Some slot ->
          slot.recv <- now;
          slot.reply <- Some (String.sub s start (j - start));
          on_reply slot
        | None -> ());
        lines (j + 1)
    in
    let rest = lines 0 in
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf s rest (String.length s - rest)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close c

let wait conns ~timeout ~on_reply =
  let live = List.filter (fun c -> not c.closed) (Array.to_list conns) in
  let rd = List.filter_map (fun c -> if Queue.is_empty c.waiting then None else Some c.fd) live in
  let wr = List.filter_map (fun c -> if Queue.is_empty c.outq then None else Some c.fd) live in
  match Unix.select rd wr [] (Float.max 0.0 timeout) with
  | r, w, _ ->
    List.iter (fun c -> if List.mem c.fd w then flush c) live;
    List.iter (fun c -> if List.mem c.fd r then read c ~on_reply) live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let owed conns = Array.exists (fun c -> (not c.closed) && not (Queue.is_empty c.waiting)) conns

(* Open loop: [slots] carry absolute due times in increasing order; each is
   sent when due whatever the daemon is doing. Returns once every request is
   answered or [drain_s] after the last one was sent. *)
let open_loop conns (slots : slot array) ~line_of ~drain_s =
  let n = Array.length slots in
  let next = ref 0 in
  let stop = ref infinity in
  while (!next < n || owed conns) && clock () < !stop do
    let now = clock () in
    while !next < n && slots.(!next).due <= now do
      let s = slots.(!next) in
      send conns.(s.conn) s (line_of s);
      incr next
    done;
    if !next = n && !stop = infinity then stop := now +. drain_s;
    Array.iter flush conns;
    let timeout = if !next < n then slots.(!next).due -. clock () else 0.05 in
    wait conns ~timeout ~on_reply:ignore
  done

(* Closed loop: keep [per_conn] requests outstanding on every connection
   until [duration] has passed, then stop sending and drain. [make conn]
   builds the next request for a connection. Returns the slots in send
   order. *)
let closed_loop conns ~per_conn ~duration ~drain_s ~make ~line_of =
  let t_end = clock () +. duration in
  let all = ref [] in
  let send_next ci =
    let s = make ci in
    all := s :: !all;
    send conns.(ci) s (line_of s)
  in
  Array.iteri (fun ci _ -> for _ = 1 to per_conn do send_next ci done) conns;
  let on_reply s = if s.recv < t_end then send_next s.conn in
  while (clock () < t_end || owed conns) && clock () < t_end +. drain_s do
    Array.iter flush conns;
    wait conns ~timeout:0.05 ~on_reply
  done;
  (List.rev !all, t_end)
