type command =
  | Work of (worker:int -> unit)
  | Stop

type t = {
  n : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable command : command option; (* broadcast to workers *)
  mutable epoch : int;
  mutable done_count : int;
  mutable failure : exn option;
  mutable domains : unit Domain.t list;
  mutable shut : bool;
}

let worker_loop t id =
  let current_epoch = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while t.epoch = !current_epoch do
      Condition.wait t.cond t.lock
    done;
    current_epoch := t.epoch;
    let cmd = t.command in
    Mutex.unlock t.lock;
    (match cmd with
    | Some Stop | None -> continue := false
    | Some (Work f) -> (
        (try f ~worker:id
         with e ->
           Mutex.lock t.lock;
           if t.failure = None then t.failure <- Some e;
           Mutex.unlock t.lock);
        Mutex.lock t.lock;
        t.done_count <- t.done_count + 1;
        if t.done_count = t.n - 1 then Condition.broadcast t.cond;
        Mutex.unlock t.lock))
  done

let create ~threads =
  if threads < 1 then invalid_arg "Domain_pool.create: threads must be >= 1";
  let t =
    {
      n = threads;
      lock = Mutex.create ();
      cond = Condition.create ();
      command = None;
      epoch = 0;
      done_count = 0;
      failure = None;
      domains = [];
      shut = false;
    }
  in
  t.domains <-
    List.init (threads - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let threads t = t.n

let run t f =
  if t.shut then invalid_arg "Domain_pool.run: pool is shut down";
  if t.n = 1 then f ~worker:0
  else begin
    Mutex.lock t.lock;
    t.command <- Some (Work f);
    t.done_count <- 0;
    t.failure <- None;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    (* Worker 0 is this domain. *)
    (try f ~worker:0
     with e ->
       Mutex.lock t.lock;
       if t.failure = None then t.failure <- Some e;
       Mutex.unlock t.lock);
    Mutex.lock t.lock;
    while t.done_count < t.n - 1 do
      Condition.wait t.cond t.lock
    done;
    let failure = t.failure in
    Mutex.unlock t.lock;
    match failure with Some e -> raise e | None -> ()
  end

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    if t.n > 1 then begin
      Mutex.lock t.lock;
      t.command <- Some Stop;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock
    end;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* At most one idle pool per process. [with_pool] takes it when its size
   fits (leaving the slot empty, so a nested or concurrent [with_pool]
   creates its own pool rather than waiting) and puts its pool back
   afterwards, shutting down whichever pool that displaces. *)
let idle : t option Atomic.t = Atomic.make None

let borrow ~threads =
  match Atomic.get idle with
  | Some t as cur when t.n = threads && Atomic.compare_and_set idle cur None
    ->
      t
  | _ -> create ~threads

(* [run] returns only after every worker finished, so a pool is idle here
   even when its region raised; only an explicit [shutdown] retires it. *)
let give_back t =
  if not t.shut then
    match Atomic.exchange idle (Some t) with
    | Some displaced -> shutdown displaced
    | None -> ()

let release_idle () = Option.iter shutdown (Atomic.exchange idle None)
let () = at_exit release_idle

let with_pool ~threads f =
  let t = borrow ~threads in
  Fun.protect ~finally:(fun () -> give_back t) (fun () -> f t)
