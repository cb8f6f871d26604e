(* Server processes and the open-loop load generator.

   Servers are the real `parcfl serve` / `parcfl cluster` binaries, each
   started in its own session (setsid) so the whole process group — the
   cluster's replicas included — can be stopped together. The generator
   is one thread of one process driving at most [nproc] pipelined
   connections: requests leave on a precomputed arrival schedule whatever
   the replies do, and each latency is timed from the request's due time
   on the monotonic clock. *)

open Util

type server = {
  pid : int;
  socket : string;
  log : string;
  mutable stopped : bool;
}

let live : server list ref = ref []

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* One request/one reply line on a fresh blocking connection. *)
let round_trip socket line =
  match connect socket with
  | None -> None
  | Some fd ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let r =
        try
          output_string oc (line ^ "\n");
          flush oc;
          Some (input_line ic)
        with Sys_error _ | End_of_file -> None
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r

let group_alive pid =
  match Unix.kill (-pid) 0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now_ns () < deadline ->
      Unix.sleepf 0.01;
      wait_exit pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline
  | exception Unix.Unix_error _ -> true

(* Stop a server: ask it to quit (it drains and, for a cluster, reaps its
   replicas), then kill whatever is left of its process group and wait. *)
let stop s =
  if not s.stopped then begin
    s.stopped <- true;
    ignore (round_trip s.socket "quit");
    let graceful = wait_exit s.pid (now_ns () +. 10e9) in
    (try Unix.kill (-s.pid) Sys.sigkill with Unix.Unix_error _ -> ());
    if not graceful then ignore (wait_exit s.pid (now_ns () +. 5e9));
    let deadline = now_ns () +. 2e9 in
    while group_alive s.pid && now_ns () < deadline do
      Unix.sleepf 0.01
    done;
    (try Unix.unlink s.socket with Unix.Unix_error _ -> ());
    live := List.filter (fun x -> x != s) !live
  end

let () = at_exit (fun () -> List.iter stop !live)

(* Start [exe args] and wait until [ready socket] holds; returns the
   server and the spawn-to-ready time in seconds. *)
let spawn ~exe ~args ~socket ~log ~ready =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now_ns () in
  let pid =
    Unix.create_process "setsid"
      (Array.of_list ("setsid" :: exe :: args))
      null out out
  in
  Unix.close out;
  Unix.close null;
  let s = { pid; socket; log; stopped = false } in
  live := s :: !live;
  let deadline = t0 +. 120e9 in
  let rec poll () =
    if ready socket then ()
    else if now_ns () > deadline then failwith ("server not ready: " ^ log)
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.sleepf 0.0002;
          poll ()
      | _ -> failwith ("server exited during start-up; see " ^ log)
  in
  poll ();
  (s, (now_ns () -. t0) /. 1e9)

let ping_ready socket =
  match round_trip socket "ping 0" with
  | Some line -> (
      match Parcfl.Svc_protocol.response_of_string line with
      | Ok (Parcfl.Svc_protocol.Pong _) -> true
      | _ -> false)
  | None -> false

(* A cluster is ready when the router answers [health] ok with no replica
   named as drained. *)
let health_ready socket =
  match round_trip socket "health 0" with
  | Some line -> (
      match Parcfl.Svc_protocol.response_of_string line with
      | Ok (Parcfl.Svc_protocol.Health_reply { healthy = true; reasons = []; _ }) -> true
      | _ -> false)
  | None -> false

(* Process ids a cluster printed for its replicas ("replica N ... pid=P"). *)
let replica_pids s =
  let pid_of line =
    if not (String.starts_with ~prefix:"replica " line) then None
    else
      List.find_map
        (fun w ->
          if String.starts_with ~prefix:"pid=" w then
            int_of_string_opt (String.sub w 4 (String.length w - 4))
          else None)
        (String.split_on_char ' ' line)
  in
  match In_channel.with_open_text s.log In_channel.input_all with
  | text -> List.filter_map pid_of (String.split_on_char '\n' text)
  | exception Sys_error _ -> []

let rss_mb s = List.fold_left (fun acc p -> acc +. vm_hwm_mb (Some p)) 0.0 (s.pid :: replica_pids s)

(* --- the generator --- *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  inbuf : Buffer.t;
  mutable dead : bool;
}

type outcome = {
  sent_ns : float array;  (** actual send time, relative to start *)
  recv_ns : float array;  (** reply arrival; nan when lost *)
  late_us : float array;  (** send time minus due time, per request *)
  lost : int;  (** requests with no reply by the drain deadline *)
  dead_conns : int;
}

(* The request id the server echoes: every reply line starts with
   {"id":<n>. Cheap enough for the send loop; full parsing is the
   caller's. *)
let reply_id line =
  let key = "{\"id\":" in
  let k = String.length key and n = String.length line in
  if not (String.starts_with ~prefix:key line) then None
  else
    let j = ref k in
    while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
      incr j
    done;
    int_of_string_opt (String.sub line k (!j - k))

(* Send [lines.(i)] at [due_ns.(i)] (ns after start, ascending); request
   [i] carries id [i] in its line. [on_reply i recv_ns line] sees every
   reply as it arrives ([i] = -1 for a reply matching no outstanding
   request), so it should only store it. Returns when every request is
   answered or [drain_s] after the last send. *)
let run ~socket ~conns:nconn ~(due_ns : float array) ~(lines : string array)
    ~drain_s ~on_reply =
  let n = Array.length lines in
  let conns =
    Array.init nconn (fun _ ->
        match connect socket with
        | Some fd ->
            Unix.set_nonblock fd;
            { fd; out = Buffer.create 65536; out_off = 0; inbuf = Buffer.create 65536; dead = false }
        | None -> failwith ("cannot connect to " ^ socket))
  in
  let sent_ns = Array.make n Float.nan and recv_ns = Array.make n Float.nan in
  let late_us = Array.make n 0.0 in
  let outstanding = ref 0 and next = ref 0 in
  let chunk = Bytes.create 65536 in
  let t0 = now_ns () in
  let last_send = ref infinity in
  let flush c =
    let len = Buffer.length c.out - c.out_off in
    if len > 0 && not c.dead then
      match Unix.write_substring c.fd (Buffer.sub c.out c.out_off len) 0 len with
      | w ->
          c.out_off <- c.out_off + w;
          if c.out_off = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.out_off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.dead <- true
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.dead <- true
    | r ->
        let t = now_ns () -. t0 in
        Buffer.add_subbytes c.inbuf chunk 0 r;
        let data = Buffer.contents c.inbuf in
        Buffer.clear c.inbuf;
        let rec lines_from st =
          match String.index_from_opt data st '\n' with
          | None -> Buffer.add_substring c.inbuf data st (String.length data - st)
          | Some e ->
              let line = String.sub data st (e - st) in
              (match reply_id line with
              | Some i when i >= 0 && i < n && Float.is_nan recv_ns.(i) ->
                  recv_ns.(i) <- t;
                  decr outstanding;
                  on_reply i t line
              | _ -> on_reply (-1) t line);
              lines_from (e + 1)
        in
        lines_from 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true
  in
  let finished () =
    !next >= n
    && (!outstanding = 0
       || now_ns () -. t0 > !last_send +. (drain_s *. 1e9)
       || Array.for_all (fun c -> c.dead) conns)
  in
  while not (finished ()) do
    let now = now_ns () -. t0 in
    while !next < n && due_ns.(!next) <= now do
      let i = !next in
      let c = conns.(i mod nconn) in
      Buffer.add_string c.out lines.(i);
      Buffer.add_char c.out '\n';
      let t = now_ns () -. t0 in
      sent_ns.(i) <- t;
      late_us.(i) <- (t -. due_ns.(i)) /. 1e3;
      incr outstanding;
      incr next;
      if !next = n then last_send := t
    done;
    Array.iter flush conns;
    let now = now_ns () -. t0 in
    let timeout =
      if !next < n then Float.max 0.0 ((due_ns.(!next) -. now) /. 1e9) else 0.05
    in
    let live = List.filter (fun c -> not c.dead) (Array.to_list conns) in
    let rfds = List.map (fun c -> c.fd) live in
    let wfds =
      List.filter_map
        (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
        live
    in
    match Unix.select rfds wfds [] (Float.min timeout 0.05) with
    | r, _, _ -> List.iter (fun c -> if List.mem c.fd r then read c) live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let dead_conns = Array.fold_left (fun a c -> if c.dead then a + 1 else a) 0 conns in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  { sent_ns; recv_ns; late_us; lost = max 0 !outstanding; dead_conns }

(* Poisson arrival offsets (ns) for [n] requests at [rate] per second. *)
let poisson rng ~rate n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let u = Random.State.float rng 1.0 in
      t := !t +. (-.Float.log (1.0 -. u) /. rate *. 1e9);
      !t)
