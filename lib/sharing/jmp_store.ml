module Hooks = Parcfl_cfl.Hooks
module Ctx = Parcfl_pag.Ctx
module Pack = Parcfl_prim.Pack
module Int_table = Parcfl_prim.Int_table
module Counter = Parcfl_conc.Counter

(* One shard: an int-keyed open-addressed table under its own mutex. Keys
   are [Pack.unsafe_pack var ctx]; values are immutable [Hooks.lookup]
   records, replaced (never mutated) when the second record kind arrives,
   so a lookup hands the stored record straight to the solver. *)
type shard = {
  lock : Mutex.t;
  tbl : Hooks.lookup Int_table.t;
}

type t = {
  bwd : shard array;
  fwd : shard array;
  mask : int;
  tau_f : int;
  tau_u : int;
  bwd_only : bool;
  n_fin : int Atomic.t;
  n_unf : int Atomic.t;
  n_hit : Counter.t;
  n_miss : Counter.t;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(shards = 64) ?(tau_f = 100) ?(tau_u = 10_000)
    ?(directions = `Both) () =
  let n = pow2_at_least (max 1 shards) 1 in
  let mk () =
    Array.init n (fun _ ->
        { lock = Mutex.create (); tbl = Int_table.create () })
  in
  {
    bwd = mk ();
    fwd = mk ();
    mask = n - 1;
    tau_f;
    tau_u;
    bwd_only = (directions = `Bwd_only);
    n_fin = Atomic.make 0;
    n_unf = Atomic.make 0;
    n_hit = Counter.create ();
    n_miss = Counter.create ();
  }

let skip t dir = match dir with Hooks.Fwd -> t.bwd_only | Hooks.Bwd -> false

let[@inline] key var ctx = Pack.unsafe_pack var (Ctx.to_int ctx)

(* The shard index takes the top bits of a multiplicative hash; the
   table's own probe position mixes differently, so one shard's keys still
   spread over its slots. *)
let[@inline] shard_of t dir k =
  let shards = match dir with Hooks.Bwd -> t.bwd | Hooks.Fwd -> t.fwd in
  Array.unsafe_get shards (((k * 0x9E3779B97F4A7C1) lsr 50) land t.mask)

let lookup t dir var ctx ~steps:_ ~worker =
  if skip t dir then Hooks.no_jmp
  else begin
    let k = key var ctx in
    let sh = shard_of t dir k in
    Mutex.lock sh.lock;
    let r = Int_table.get sh.tbl k ~default:Hooks.no_jmp in
    Mutex.unlock sh.lock;
    Counter.incr (if r == Hooks.no_jmp then t.n_miss else t.n_hit) ~worker;
    r
  end

(* Read-modify-write of one key under its shard lock. [merge] returns the
   replacement record, or [None] when the kind it adds is already present:
   first write of each kind wins. Returns whether a record was added. *)
let update t dir var ctx merge =
  let k = key var ctx in
  let sh = shard_of t dir k in
  Mutex.lock sh.lock;
  let added =
    match merge (Int_table.get sh.tbl k ~default:Hooks.no_jmp) with
    | Some r ->
        Int_table.set sh.tbl k r;
        true
    | None -> false
  in
  Mutex.unlock sh.lock;
  added

let add_finished t dir var ctx fin =
  if
    update t dir var ctx (fun r ->
        match r.Hooks.finished with
        | Some _ -> None
        | None -> Some { r with Hooks.finished = Some fin })
  then Atomic.incr t.n_fin

let record_finished t dir var ctx ~cost ~targets =
  if cost >= t.tau_f && not (skip t dir) then
    add_finished t dir var ctx { Hooks.cost; targets }

let record_unfinished t dir var ctx ~s =
  if s >= t.tau_u && not (skip t dir) then
    if
      update t dir var ctx (fun r ->
          match r.Hooks.unfinished with
          | Some _ -> None
          | None -> Some { r with Hooks.unfinished = Some s })
    then Atomic.incr t.n_unf

let hooks t =
  {
    Hooks.lookup =
      (fun dir var ctx ~steps ~worker -> lookup t dir var ctx ~steps ~worker);
    record_finished =
      (fun dir var ctx ~cost ~targets ->
        record_finished t dir var ctx ~cost ~targets);
    record_unfinished =
      (fun dir var ctx ~s -> record_unfinished t dir var ctx ~s);
  }

let n_finished t = Atomic.get t.n_fin
let n_unfinished t = Atomic.get t.n_unf
let n_hits t = Counter.value t.n_hit
let n_misses t = Counter.value t.n_miss
let n_jumps t = n_finished t + n_unfinished t
let tau_f t = t.tau_f
let tau_u t = t.tau_u

(* Every record with its direction bit (0 = Bwd, 1 = Fwd) and packed key,
   one shard lock at a time. *)
let iter_records t f =
  let each d shards =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock sh.lock)
          (fun () -> Int_table.iter (fun k r -> f d k r) sh.tbl))
      shards
  in
  each 0 t.bwd;
  each 1 t.fwd

let histogram t ~buckets =
  let bucket_of = Parcfl_stats.Histogram.bucket ~buckets in
  let fin = Array.make buckets 0 and unf = Array.make buckets 0 in
  iter_records t (fun _ _ r ->
      (match r.Hooks.finished with
      | Some { Hooks.cost; _ } ->
          let b = bucket_of cost in
          fin.(b) <- fin.(b) + 1
      | None -> ());
      match r.Hooks.unfinished with
      | Some s ->
          let b = bucket_of s in
          unf.(b) <- unf.(b) + 1
      | None -> ());
  (fin, unf)

let clear t =
  let each shards =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        Int_table.clear sh.tbl;
        Mutex.unlock sh.lock)
      shards
  in
  each t.bwd;
  each t.fwd;
  Atomic.set t.n_fin 0;
  Atomic.set t.n_unf 0;
  Counter.reset t.n_hit;
  Counter.reset t.n_miss

(* ---------------------- snapshot export / import ---------------------- *)

(* Finished records are immutable facts about one PAG generation, so a
   joining replica can load them verbatim instead of re-deriving them —
   that is the cluster warm-up path. Two rules keep this sound:

   - Finished-only: Unfinished records are progress markers ("a walk spent
     s steps here and gave up"), not facts; they never travel.
   - Generation-stability: the header carries the exporter's generation and
     the importer refuses any mismatch, because a record is only valid for
     the exact PAG it was derived from.

   Context ids are store-local (interning order differs per process), so a
   snapshot spells each context out structurally — its call-site list,
   outermost first — and the importer re-interns against its own store. *)

let snap_magic = "jmpsnap"
let snap_version = 1

let split_on_ws line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let ctx_to_token store c =
  match Ctx.to_list store c with
  | [] -> "-"
  | sites -> String.concat "," (List.map string_of_int sites)

let ctx_of_token store tok =
  if tok = "-" then Ok Ctx.empty
  else
    let rec go acc = function
      | [] -> Ok (Ctx.of_list store (List.rev acc))
      | p :: rest -> (
          match int_of_string_opt p with
          | Some s when s >= 0 && s < Pack.hi_limit -> go (s :: acc) rest
          | _ -> Error (Printf.sprintf "malformed context site %S" p))
    in
    go [] (String.split_on_char ',' tok)

let export_finished t ~generation ~ctx_store =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d gen=%d\n" snap_magic snap_version generation);
  iter_records t (fun d k r ->
      match r.Hooks.finished with
      | None -> ()
      | Some { Hooks.cost; targets } ->
          Buffer.add_string buf
            (Printf.sprintf "fin %d %d %s %d" d (Pack.hi k)
               (ctx_to_token ctx_store (Ctx.unsafe_of_int (Pack.lo k)))
               cost);
          Array.iter
            (fun (tv, tc) ->
              Buffer.add_string buf
                (Printf.sprintf " %d@%s" tv (ctx_to_token ctx_store tc)))
            targets;
          Buffer.add_char buf '\n');
  Buffer.contents buf

(* Install without the tau_f admission filter: the exporter already applied
   its threshold, and a snapshot fact is worth keeping even if our own
   threshold is stricter. First write still wins against local records. *)
let install_finished t dir var ctx ~cost ~targets =
  if not (skip t dir) then add_finished t dir var ctx { Hooks.cost; targets }

let import_finished t ~generation ~ctx_store text =
  let ( let* ) = Result.bind in
  let* body =
    match String.split_on_char '\n' text with
    | header :: body -> (
        match split_on_ws header with
        | [ magic; version; genkv ] when magic = snap_magic -> (
            let* () =
              match int_of_string_opt version with
              | Some v when v = snap_version -> Ok ()
              | _ ->
                  Error
                    (Printf.sprintf "unsupported snapshot version %S" version)
            in
            match
              if String.length genkv > 4 && String.sub genkv 0 4 = "gen=" then
                int_of_string_opt
                  (String.sub genkv 4 (String.length genkv - 4))
              else None
            with
            | None -> Error (Printf.sprintf "malformed generation %S" genkv)
            | Some g when g <> generation ->
                Error
                  (Printf.sprintf
                     "snapshot is for generation %d, this store serves \
                      generation %d"
                     g generation)
            | Some _ -> Ok body)
        | _ -> Error "not a jmp snapshot (bad header)")
    | [] -> Error "empty snapshot"
  in
  let parse_target tok =
    match String.index_opt tok '@' with
    | None -> Error (Printf.sprintf "malformed target %S" tok)
    | Some i -> (
        let v = String.sub tok 0 i in
        let c = String.sub tok (i + 1) (String.length tok - i - 1) in
        match int_of_string_opt v with
        | None -> Error (Printf.sprintf "malformed target variable %S" v)
        | Some v ->
            let* ctx = ctx_of_token ctx_store c in
            Ok (v, ctx))
  in
  let rec targets_of acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | tok :: rest ->
        let* tgt = parse_target tok in
        targets_of (tgt :: acc) rest
  in
  let imported = ref 0 in
  let rec go lineno = function
    | [] -> Ok !imported
    | line :: rest -> (
        if String.trim line = "" then go (lineno + 1) rest
        else
          match split_on_ws line with
          | "fin" :: d :: var :: ctx :: cost :: targets -> (
              match
                (int_of_string_opt d, int_of_string_opt var,
                 int_of_string_opt cost)
              with
              | Some d, Some var, Some cost
                when (d = 0 || d = 1) && var >= 0 && var < Pack.hi_limit ->
                  let dir = if d = 0 then Hooks.Bwd else Hooks.Fwd in
                  let* ctx = ctx_of_token ctx_store ctx in
                  let* targets = targets_of [] targets in
                  let before = n_finished t in
                  install_finished t dir var ctx ~cost ~targets;
                  imported := !imported + (n_finished t - before);
                  go (lineno + 1) rest
              | _ ->
                  Error
                    (Printf.sprintf "line %d: malformed fin record" lineno))
          | kw :: _ ->
              Error
                (Printf.sprintf "line %d: unknown directive %S" lineno kw)
          | [] -> go (lineno + 1) rest)
  in
  go 2 body
