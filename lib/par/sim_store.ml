module Hooks = Parcfl_cfl.Hooks
module Ctx = Parcfl_pag.Ctx

type key = int * int

let key dir var ctx : key =
  let d = match dir with Hooks.Bwd -> 0 | Hooks.Fwd -> 1 in
  ((var lsl 1) lor d, Ctx.to_int ctx)

type record_ = {
  mutable fin : (Hooks.finished * int) option; (* value, publish time *)
  mutable unf : (int * int) option;
}

type t = {
  tbl : (key, record_) Hashtbl.t;
  tau_f : int;
  tau_u : int;
  mutable n_fin : int;
  mutable n_unf : int;
}

(* Virtual cost of touching the concurrent map. A lookup is a hash probe
   under a shard lock; an insert additionally allocates and invalidates the
   line for other cores. The constants are coarse but their ratio to the
   1-step node traversal is what matters: flooding the map with tiny
   shortcuts must cost more than it saves (Section IV-A). *)
let lookup_cost = 2
let insert_cost = 100

let create ?(tau_f = 100) ?(tau_u = 10_000) () =
  { tbl = Hashtbl.create 1024; tau_f; tau_u; n_fin = 0; n_unf = 0 }

type query_session = {
  hooks : Hooks.t;
  publish : avail:int -> unit;
  sync_cost : unit -> int;
}

type overlay = {
  o_fin : (key, Hooks.finished) Hashtbl.t;
  o_unf : (key, int) Hashtbl.t;
}

let begin_query t ~start =
  let ov = { o_fin = Hashtbl.create 16; o_unf = Hashtbl.create 16 } in
  let cost = ref 0 in
  let lookup dir var ctx ~steps ~worker:_ =
    cost := !cost + lookup_cost;
    (* Fine-grained virtual time: the thread has walked [steps] nodes since
       the query started, so records published meanwhile are visible. *)
    let now = start + steps in
    let k = key dir var ctx in
    let global = Hashtbl.find_opt t.tbl k in
    let fin =
      match Hashtbl.find_opt ov.o_fin k with
      | Some f -> Some f
      | None -> (
          match global with
          | Some { fin = Some (f, avail); _ } when avail <= now -> Some f
          | _ -> None)
    in
    let unf =
      match Hashtbl.find_opt ov.o_unf k with
      | Some s -> Some s
      | None -> (
          match global with
          | Some { unf = Some (s, avail); _ } when avail <= now -> Some s
          | _ -> None)
    in
    { Hooks.unfinished = unf; finished = fin }
  in
  let record_finished dir var ctx ~cost:c ~targets =
    if c >= t.tau_f then begin
      let k = key dir var ctx in
      if not (Hashtbl.mem ov.o_fin k) then
        Hashtbl.replace ov.o_fin k { Hooks.cost = c; targets }
    end
  in
  let record_unfinished dir var ctx ~s =
    if s >= t.tau_u then begin
      let k = key dir var ctx in
      if not (Hashtbl.mem ov.o_unf k) then Hashtbl.replace ov.o_unf k s
    end
  in
  let publish ~avail =
    let record k =
      cost := !cost + insert_cost;
      match Hashtbl.find_opt t.tbl k with
      | Some r -> r
      | None ->
          let r = { fin = None; unf = None } in
          Hashtbl.replace t.tbl k r;
          r
    in
    Hashtbl.iter
      (fun k f ->
        let r = record k in
        if r.fin = None then begin
          r.fin <- Some (f, avail);
          t.n_fin <- t.n_fin + 1
        end)
      ov.o_fin;
    Hashtbl.iter
      (fun k s ->
        let r = record k in
        if r.unf = None then begin
          r.unf <- Some (s, avail);
          t.n_unf <- t.n_unf + 1
        end)
      ov.o_unf
  in
  {
    hooks = { Hooks.lookup; record_finished; record_unfinished };
    publish;
    sync_cost = (fun () -> !cost);
  }

let n_finished t = t.n_fin
let n_unfinished t = t.n_unf
