module Make (Key : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) =
struct
  type key = Key.t

  module H = Hashtbl.Make (Key)

  type 'v shard = {
    lock : Mutex.t;
    table : 'v H.t;
  }

  type 'v t = {
    shards : 'v shard array;
    mask : int;
  }

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

  let create ?(shards = 64) ?(initial_capacity = 64) () =
    let n = pow2_at_least (max 1 shards) 1 in
    {
      shards =
        Array.init n (fun _ ->
            { lock = Mutex.create (); table = H.create initial_capacity });
      mask = n - 1;
    }

  (* Each shard's [Hashtbl] buckets by the low bits of [Key.hash], so the
     shard index must come from other bits: keys picked by their low bits
     would all share those bits inside a shard and leave all but
     1/[shards] of its buckets empty. Re-mix and take the top bits. *)
  let shard t k =
    t.shards.(((Key.hash k * 0x9E3779B97F4A7C1) lsr 40) land t.mask)

  let with_lock s f =
    Mutex.lock s.lock;
    match f s.table with
    | v ->
        Mutex.unlock s.lock;
        v
    | exception e ->
        Mutex.unlock s.lock;
        raise e

  let find_opt t k = with_lock (shard t k) (fun tbl -> H.find_opt tbl k)

  let find_map t k f =
    with_lock (shard t k) (fun tbl -> Option.map f (H.find_opt tbl k))

  let mem t k = with_lock (shard t k) (fun tbl -> H.mem tbl k)

  let add_if_absent t k v =
    with_lock (shard t k) (fun tbl ->
        match H.find_opt tbl k with
        | Some existing -> `Present existing
        | None ->
            H.replace tbl k v;
            `Added)

  let update t k f =
    with_lock (shard t k) (fun tbl ->
        match f (H.find_opt tbl k) with
        | Some v -> H.replace tbl k v
        | None -> H.remove tbl k)

  let remove t k = with_lock (shard t k) (fun tbl -> H.remove tbl k)

  let length t =
    Array.fold_left (fun acc s -> acc + with_lock s H.length) 0 t.shards

  let size t =
    Array.fold_left (fun acc s -> acc + H.length s.table) 0 t.shards

  let fold f t init =
    Array.fold_left
      (fun acc s -> with_lock s (fun tbl -> H.fold f tbl acc))
      init t.shards

  let clear t = Array.iter (fun s -> with_lock s H.reset) t.shards
end
