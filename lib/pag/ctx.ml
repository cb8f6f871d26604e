type t = int

type entry = {
  site : int;
  parent : int;
  depth : int;
}

(* An interned entry's key is site ⊕ parent packed into one int: no tuple
   to box per [push], and [equal] compiles to an int compare rather than
   the polymorphic structural one. *)
module Key = struct
  type t = int

  let equal (a : t) b = a = b
  let hash (k : t) =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 39)
end

module Tbl = Parcfl_conc.Sharded_map.Make (Key)

(* Entries live in a chunked table so the id→entry array never reallocates:
   readers may index it while another domain interns. A chunk pointer is
   published with an atomic store; the entry fields are written before the id
   escapes (ids only travel through mutex-protected structures, giving the
   necessary happens-before). *)
(* Spine size is a real cost, not just an address-space bound: every store
   creation allocates [max_chunks] atomics and the first minor collection
   after it promotes them all, a pause charged to whatever query happens to
   be running. 2^24 contexts is still orders of magnitude beyond any
   workload in the suite, and exhaustion fails loudly below. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let max_chunks = 1 lsl 12

type store = {
  ids : int Tbl.t;
  chunks : entry array option Atomic.t array;
  next : int Atomic.t; (* next free id; id 0 is the empty context *)
  alloc_lock : Mutex.t;
}

let dummy_entry = { site = -1; parent = -1; depth = 0 }

let create_store () =
  {
    ids = Tbl.create ~shards:64 ();
    chunks = Array.init max_chunks (fun _ -> Atomic.make None);
    next = Atomic.make 1;
    alloc_lock = Mutex.create ();
  }

let empty = 0

let is_empty c = c = 0

let entry store c =
  let chunk = c lsr chunk_bits and off = c land (chunk_size - 1) in
  match Atomic.get store.chunks.(chunk) with
  | Some arr -> arr.(off)
  | None -> invalid_arg "Ctx: unknown context id"

let write_entry store id e =
  let chunk = id lsr chunk_bits and off = id land (chunk_size - 1) in
  if chunk >= max_chunks then failwith "Ctx: context store exhausted";
  let arr =
    match Atomic.get store.chunks.(chunk) with
    | Some arr -> arr
    | None ->
        Mutex.lock store.alloc_lock;
        let arr =
          match Atomic.get store.chunks.(chunk) with
          | Some arr -> arr
          | None ->
              let arr = Array.make chunk_size dummy_entry in
              Atomic.set store.chunks.(chunk) (Some arr);
              arr
        in
        Mutex.unlock store.alloc_lock;
        arr
  in
  arr.(off) <- e

let push store c i =
  let key = Parcfl_prim.Pack.pack i c in
  match Tbl.find_opt store.ids key with
  | Some id -> id
  | None ->
      let depth = if c = 0 then 1 else (entry store c).depth + 1 in
      let id = Atomic.fetch_and_add store.next 1 in
      write_entry store id { site = i; parent = c; depth };
      (match Tbl.add_if_absent store.ids key id with
      | `Added -> id
      | `Present winner ->
          (* Another domain interned the same key first; our slot is wasted
             but harmless (ids need not be dense). *)
          winner)

let top store c = if c = 0 then None else Some (entry store c).site

let top_site store c = if c = 0 then -1 else (entry store c).site

let pop store c = if c = 0 then 0 else (entry store c).parent

let depth store c = if c = 0 then 0 else (entry store c).depth

let to_list store c =
  let rec go c acc =
    if c = 0 then List.rev acc
    else
      let e = entry store c in
      go e.parent (e.site :: acc)
  in
  go c []

let of_list store sites =
  List.fold_left (fun c i -> push store c i) 0 (List.rev sites)

let count store = Atomic.get store.next - 1

let equal (a : t) b = a = b
let hash (c : t) = c * 0x2545F491 land max_int
let to_int c = c
let unsafe_of_int c = c

let pp store ppf c =
  if c = 0 then Format.pp_print_string ppf "[]"
  else
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         Format.pp_print_int)
      (to_list store c)
