module Pag = Parcfl_pag.Pag
module Scc = Parcfl_prim.Scc
module Union_find = Parcfl_prim.Union_find
module Vec = Parcfl_prim.Vec

type t = {
  groups : Pag.var array array;
  n_components : int;
  mean_group_size : float;
}

let connection_distances ~pag =
  let n = Pag.n_vars pag in
  (* Tarjan and the condensation both walk every successor list: build
     them once. *)
  let succ_lists =
    Array.init n (fun v ->
        let out = ref [] in
        Pag.iter_direct_succs pag v (fun w -> out := w :: !out);
        !out)
  in
  let succs v = succ_lists.(v) in
  (* Self-loops are irrelevant here (no Scc.has_self_loop check): the
     condensation strips them and a singleton's weight is its member count
     whether or not it loops, so connection distances are unaffected. *)
  let scc = Scc.compute ~n ~succs in
  let dag = Scc.condensation scc ~succs in
  let weight c = List.length scc.Scc.members.(c) in
  let through = Scc.longest_path_through ~dag ~weight in
  Array.init n (fun v -> through.(scc.Scc.comp_of.(v)))

(* LSD radix sort of keys in [0, bound), reusing [keys] as one buffer: a
   counting sort per byte, so the scratch is one array of the input's
   length plus 256 counters, whatever the bound. *)
let radix_sort ~bound keys =
  let len = Array.length keys in
  let count = Array.make 256 0 in
  let rec pass src dst shift =
    if (bound - 1) asr shift <= 0 then src
    else begin
      Array.fill count 0 256 0;
      Array.iter
        (fun k ->
          let d = (k lsr shift) land 255 in
          count.(d) <- count.(d) + 1)
        src;
      let total = ref 0 in
      for d = 0 to 255 do
        let c = count.(d) in
        count.(d) <- !total;
        total := !total + c
      done;
      Array.iter
        (fun k ->
          let d = (k lsr shift) land 255 in
          dst.(count.(d)) <- k;
          count.(d) <- count.(d) + 1)
        src;
      pass dst src (shift + 8)
    end
  in
  pass keys (Array.make len 0) 0

type plan = {
  root_of : int array;  (* var -> union-find root of its component *)
  comp_of : int array;
      (* var -> dense component id; ids follow increasing root, so the
         id order is the "ties by representative" order *)
  cd_rank : int array;  (* var -> position in increasing (CD, id) order *)
  by_cd : int array;  (* the inverse: position -> var *)
  dd_rank : int array;
      (* component id -> position in increasing (DD, root) issue order *)
}

let prepare ~pag ~type_level =
  let n = Pag.n_vars pag in
  (* Grouping: undirected connectivity over direct edges. *)
  let uf = Union_find.create n in
  for v = 0 to n - 1 do
    Pag.iter_direct_succs pag v (fun w -> Union_find.union uf v w)
  done;
  let root_of = Array.init n (Union_find.find uf) in
  (* A root is its own member, so numbering roots in id order first and
     then copying each root's id to its members is one pass each. *)
  let comp_of = Array.make n 0 in
  let n_comps = ref 0 in
  for v = 0 to n - 1 do
    if root_of.(v) = v then begin
      comp_of.(v) <- !n_comps;
      incr n_comps
    end
  done;
  for v = 0 to n - 1 do
    comp_of.(v) <- comp_of.(root_of.(v))
  done;
  let n_comps = !n_comps in
  (* A component's DD is the min over all its members, queried or not. *)
  let comp_dd = Array.make n_comps infinity in
  for v = 0 to n - 1 do
    let l = type_level (Pag.var_typ pag v) in
    let d = if l <= 0 then infinity else 1.0 /. float_of_int l in
    let c = comp_of.(v) in
    if d < comp_dd.(c) then comp_dd.(c) <- d
  done;
  let order = Array.init n_comps Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare comp_dd.(a) comp_dd.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let dd_rank = Array.make n_comps 0 in
  Array.iteri (fun rank c -> dd_rank.(c) <- rank) order;
  (* CDs lie in [1, n], so [cd * n + v] orders by CD, ties by id. *)
  let cd = connection_distances ~pag in
  let keys = Array.init n (fun v -> (cd.(v) * n) + v) in
  let by_cd =
    Array.map (fun k -> k mod n) (radix_sort ~bound:((n + 1) * n) keys)
  in
  let cd_rank = Array.make n 0 in
  Array.iteri (fun rank v -> cd_rank.(v) <- rank) by_cd;
  { root_of; comp_of; cd_rank; by_cd; dd_rank }

(* One plan per PAG, held weakly: the slot dies with its graph, and a
   different [type_level] replaces the slot instead of adding one. Plans
   are computed outside the lock — two domains racing on the same graph
   both compute the same deterministic plan, and the later write wins. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Pag.t

  let equal = ( == )
  let hash pag = Hashtbl.hash (Pag.n_vars pag, Pag.n_edges pag)
end)

let memo : ((int -> int) * plan) Memo.t = Memo.create 8
let memo_lock = Mutex.create ()

let plan_for ~pag ~type_level =
  match Mutex.protect memo_lock (fun () -> Memo.find_opt memo pag) with
  | Some (level, plan) when level == type_level -> plan
  | _ ->
      let plan = prepare ~pag ~type_level in
      Mutex.protect memo_lock (fun () ->
          Memo.replace memo pag (type_level, plan));
      plan

let component_roots plan = Array.copy plan.root_of

let build_with ?(order_within = true) ?(order_across = true) plan queries =
  let { comp_of; cd_rank; by_cd; dd_rank; _ } = plan in
  let n = Array.length comp_of in
  (* One int key per query, [across * n + within]: across groups,
     increasing DD with ties by representative (or by representative
     alone); within a group, increasing CD with ties by id (or by id
     alone). Both parts are below [n], so the key decodes back to the
     variable and its group, and sorting the keys orders the batch with
     scratch the size of the batch, not of the graph. *)
  let keys =
    radix_sort
      ~bound:(Array.length dd_rank * n)
      (Array.map
         (fun v ->
           let c = comp_of.(v) in
           ((if order_across then dd_rank.(c) else c) * n)
           + if order_within then cd_rank.(v) else v)
         queries)
  in
  let sorted =
    Array.map
      (fun k -> if order_within then by_cd.(k mod n) else k mod n)
      keys
  in
  (* Group boundaries: [ends] lists the end of each group's run. *)
  let ends = Vec.create () in
  Array.iteri
    (fun i k ->
      if i + 1 = Array.length keys || keys.(i + 1) / n <> k / n then
        Vec.push ends (i + 1))
    keys;
  let n_components = Vec.length ends in
  let mean =
    if n_components = 0 then 0.0
    else float_of_int (Array.length queries) /. float_of_int n_components
  in
  (* Load balance to roughly M queries per unit: split the big, merge the
     small (with their DD-adjacent neighbours). *)
  let m = max 1 (int_of_float (Float.round mean)) in
  let units = Vec.create () in
  let pending = Vec.create () in
  let flush () =
    if Vec.length pending > 0 then begin
      Vec.push units (Vec.to_array pending);
      Vec.clear pending
    end
  in
  let lo = ref 0 in
  Vec.iter
    (fun hi ->
      let len = hi - !lo in
      if len >= m then begin
        (* Close the current merge buffer first to preserve issue order. *)
        flush ();
        let chunks = (len + m - 1) / m in
        let base = len / chunks and extra = len mod chunks in
        let pos = ref !lo in
        for i = 0 to chunks - 1 do
          let sz = base + if i < extra then 1 else 0 in
          Vec.push units (Array.sub sorted !pos sz);
          pos := !pos + sz
        done
      end
      else begin
        for i = !lo to hi - 1 do
          Vec.push pending sorted.(i)
        done;
        if Vec.length pending >= m then flush ()
      end;
      lo := hi)
    ends;
  flush ();
  { groups = Vec.to_array units; n_components; mean_group_size = mean }

let build ?order_within ?order_across ~pag ~type_level queries =
  build_with ?order_within ?order_across (plan_for ~pag ~type_level) queries

let flat_order t = Array.concat (Array.to_list t.groups)
let group_sizes t = Array.map Array.length t.groups
