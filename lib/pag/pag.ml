module Vec = Parcfl_prim.Vec
module Bitset = Parcfl_prim.Bitset
module Pack = Parcfl_prim.Pack

type var = int
type obj = int
type field = int
type callsite = int

type edge =
  | New of { dst : var; obj : obj }
  | Assign of { dst : var; src : var }
  | Assign_global of { dst : var; src : var }
  | Load of { dst : var; base : var; field : field }
  | Store of { base : var; field : field; src : var }
  | Param of { dst : var; site : callsite; src : var }
  | Ret of { dst : var; site : callsite; src : var }

type var_info = {
  v_name : string;
  v_global : bool;
  v_typ : int;
  v_method : int;
  v_app : bool;
}

type obj_info = {
  o_name : string;
  o_typ : int;
  o_method : int;
}

(* Struct-of-arrays CSR adjacency: the neighbors of node [v] live in
   [dat.(off.(v)) .. dat.(off.(v+1) - 1)], in edge-insertion order. Paired
   relations (site+var, field+var, var+var) store both halves in one int via
   {!Pack} — traversing them allocates nothing. *)
type csr = {
  off : int array; (* length n+1 *)
  dat : int array;
}

type t = {
  vars : var_info array;
  objs : obj_info array;
  n_edges : int;
  n_fields : int;
  new_in : csr; (* var -> obj *)
  new_out : csr; (* obj -> var *)
  assign_in : csr; (* var -> var *)
  assign_out : csr;
  gassign_in : csr;
  gassign_out : csr;
  param_in : csr; (* var -> site ⊕ var *)
  param_out : csr;
  ret_in : csr;
  ret_out : csr;
  load_in : csr; (* var -> field ⊕ base *)
  store_out : csr; (* var -> field ⊕ base *)
  stores_of_field : csr; (* field -> base ⊕ src *)
  loads_of_field : csr; (* field -> dst ⊕ base *)
  store_base_fields : csr; (* var -> fields it is a store base of, sorted *)
  load_base_fields : csr; (* var -> fields it is a load base of, sorted *)
  ci_sites : Bitset.t;
  app_locals : var array;
}

module Build = struct
  type b = {
    b_vars : var_info Vec.t;
    b_objs : obj_info Vec.t;
    mutable b_edges : int;
    b_new : (var * obj) Vec.t;
    b_assign : (var * var) Vec.t;
    b_gassign : (var * var) Vec.t;
    b_param : (var * callsite * var) Vec.t;
    b_ret : (var * callsite * var) Vec.t;
    b_load : (var * var * field) Vec.t; (* dst, base, field *)
    b_store : (var * field * var) Vec.t; (* base, field, src *)
    b_ci : Bitset.t;
  }

  let create () =
    {
      b_vars = Vec.create ();
      b_objs = Vec.create ();
      b_edges = 0;
      b_new = Vec.create ();
      b_assign = Vec.create ();
      b_gassign = Vec.create ();
      b_param = Vec.create ();
      b_ret = Vec.create ();
      b_load = Vec.create ();
      b_store = Vec.create ();
      b_ci = Bitset.create ();
    }

  (* Ids are validated against the packing width as they are created, so
     [freeze] and the solver can use [Pack.unsafe_pack] throughout. *)
  let add_var b ?(global = false) ?(typ = -1) ?(method_id = -1) ?(app = false)
      name =
    let id = Vec.length b.b_vars in
    Pack.check_hi "variable id" id;
    Vec.push b.b_vars
      { v_name = name; v_global = global; v_typ = typ; v_method = method_id;
        v_app = app };
    id

  let add_obj b ?(typ = -1) ?(method_id = -1) name =
    let id = Vec.length b.b_objs in
    Pack.check_hi "object id" id;
    Vec.push b.b_objs { o_name = name; o_typ = typ; o_method = method_id };
    id

  let check_var b v what =
    if v < 0 || v >= Vec.length b.b_vars then
      invalid_arg (Printf.sprintf "Pag.Build.%s: unknown variable %d" what v)

  let check_obj b o what =
    if o < 0 || o >= Vec.length b.b_objs then
      invalid_arg (Printf.sprintf "Pag.Build.%s: unknown object %d" what o)

  let bump b = b.b_edges <- b.b_edges + 1

  let new_edge b ~dst o =
    check_var b dst "new_edge";
    check_obj b o "new_edge";
    Vec.push b.b_new (dst, o);
    bump b

  let assign b ~dst ~src =
    check_var b dst "assign";
    check_var b src "assign";
    Vec.push b.b_assign (dst, src);
    bump b

  let assign_global b ~dst ~src =
    check_var b dst "assign_global";
    check_var b src "assign_global";
    Vec.push b.b_gassign (dst, src);
    bump b

  let load b ~dst ~base field =
    check_var b dst "load";
    check_var b base "load";
    if field < 0 then invalid_arg "Pag.Build.load: negative field";
    Pack.check_hi "field id" field;
    Vec.push b.b_load (dst, base, field);
    bump b

  let store b ~base field ~src =
    check_var b base "store";
    check_var b src "store";
    if field < 0 then invalid_arg "Pag.Build.store: negative field";
    Pack.check_hi "field id" field;
    Vec.push b.b_store (base, field, src);
    bump b

  let param b ~dst ~site ~src =
    check_var b dst "param";
    check_var b src "param";
    if site < 0 then invalid_arg "Pag.Build.param: negative call site";
    Pack.check_hi "call site id" site;
    Vec.push b.b_param (dst, site, src);
    bump b

  let ret b ~dst ~site ~src =
    check_var b dst "ret";
    check_var b src "ret";
    if site < 0 then invalid_arg "Pag.Build.ret: negative call site";
    Pack.check_hi "call site id" site;
    Vec.push b.b_ret (dst, site, src);
    bump b

  let mark_ci_site b site = ignore (Bitset.add b.b_ci site)

  let n_vars b = Vec.length b.b_vars

  (* Two-pass CSR construction: count per-node degrees into [off], prefix-sum
     into row starts, then fill [dat] with a moving cursor. Replaying the
     edge vectors in the same order both times keeps each node's neighbor
     list in edge-insertion order, so traversal order (and therefore the
     deterministic steps-walked counts the bench gate tracks) is identical
     to the old per-node-vector freeze. *)
  let csr_of n iter =
    let off = Array.make (n + 1) 0 in
    iter (fun node _payload -> off.(node + 1) <- off.(node + 1) + 1);
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i + 1) + off.(i)
    done;
    let dat = Array.make off.(n) 0 in
    let cur = Array.copy off in
    iter (fun node payload ->
        dat.(cur.(node)) <- payload;
        cur.(node) <- cur.(node) + 1);
    { off; dat }

  let freeze b =
    let nv = Vec.length b.b_vars and no = Vec.length b.b_objs in
    let new_in = csr_of nv (fun f -> Vec.iter (fun (x, o) -> f x o) b.b_new)
    and new_out = csr_of no (fun f -> Vec.iter (fun (x, o) -> f o x) b.b_new)
    and assign_in =
      csr_of nv (fun f -> Vec.iter (fun (x, y) -> f x y) b.b_assign)
    and assign_out =
      csr_of nv (fun f -> Vec.iter (fun (x, y) -> f y x) b.b_assign)
    and gassign_in =
      csr_of nv (fun f -> Vec.iter (fun (x, y) -> f x y) b.b_gassign)
    and gassign_out =
      csr_of nv (fun f -> Vec.iter (fun (x, y) -> f y x) b.b_gassign)
    and param_in =
      csr_of nv (fun f ->
          Vec.iter (fun (x, i, y) -> f x (Pack.unsafe_pack i y)) b.b_param)
    and param_out =
      csr_of nv (fun f ->
          Vec.iter (fun (x, i, y) -> f y (Pack.unsafe_pack i x)) b.b_param)
    and ret_in =
      csr_of nv (fun f ->
          Vec.iter (fun (x, i, y) -> f x (Pack.unsafe_pack i y)) b.b_ret)
    and ret_out =
      csr_of nv (fun f ->
          Vec.iter (fun (x, i, y) -> f y (Pack.unsafe_pack i x)) b.b_ret)
    in
    let n_fields =
      let m = ref 0 in
      Vec.iter (fun (_, _, f) -> if f + 1 > !m then m := f + 1) b.b_load;
      Vec.iter (fun (_, f, _) -> if f + 1 > !m then m := f + 1) b.b_store;
      !m
    in
    let load_in =
      csr_of nv (fun f ->
          Vec.iter (fun (x, p, fd) -> f x (Pack.unsafe_pack fd p)) b.b_load)
    and loads_of_field =
      csr_of n_fields (fun f ->
          Vec.iter (fun (x, p, fd) -> f fd (Pack.unsafe_pack x p)) b.b_load)
    and store_out =
      csr_of nv (fun f ->
          Vec.iter (fun (q, fd, y) -> f y (Pack.unsafe_pack fd q)) b.b_store)
    and stores_of_field =
      csr_of n_fields (fun f ->
          Vec.iter (fun (q, fd, y) -> f fd (Pack.unsafe_pack q y)) b.b_store)
    in
    (* The alias test's base filter: each variable's row lists, sorted and
       deduplicated, the fields it is a store (load) base of. *)
    let sorted_unique_rows c =
      let len = ref 0 in
      let off = Array.make (Array.length c.off) 0 in
      for v = 0 to Array.length c.off - 2 do
        let row = Array.sub c.dat c.off.(v) (c.off.(v + 1) - c.off.(v)) in
        Array.sort Int.compare row;
        Array.iteri
          (fun i f ->
            if i = 0 || row.(i - 1) <> f then begin
              c.dat.(!len) <- f;
              incr len
            end)
          row;
        off.(v + 1) <- !len
      done;
      { off; dat = Array.sub c.dat 0 !len }
    in
    let store_base_fields =
      sorted_unique_rows
        (csr_of nv (fun f -> Vec.iter (fun (q, fd, _) -> f q fd) b.b_store))
    and load_base_fields =
      sorted_unique_rows
        (csr_of nv (fun f -> Vec.iter (fun (_, p, fd) -> f p fd) b.b_load))
    in
    let app_locals =
      let acc = Vec.create () in
      Vec.iteri
        (fun id vi -> if vi.v_app && not vi.v_global then Vec.push acc id)
        b.b_vars;
      Vec.to_array acc
    in
    {
      vars = Vec.to_array b.b_vars;
      objs = Vec.to_array b.b_objs;
      n_edges = b.b_edges;
      n_fields;
      new_in;
      new_out;
      assign_in;
      assign_out;
      gassign_in;
      gassign_out;
      param_in;
      param_out;
      ret_in;
      ret_out;
      load_in;
      store_out;
      stores_of_field;
      loads_of_field;
      store_base_fields;
      load_base_fields;
      ci_sites = b.b_ci;
      app_locals;
    }
end

let n_vars t = Array.length t.vars
let n_objs t = Array.length t.objs
let n_nodes t = n_vars t + n_objs t
let n_edges t = t.n_edges
let n_fields t = t.n_fields

let var_name t v = t.vars.(v).v_name
let obj_name t o = t.objs.(o).o_name
let var_is_global t v = t.vars.(v).v_global
let var_typ t v = t.vars.(v).v_typ
let obj_typ t o = t.objs.(o).o_typ
let obj_method t o = t.objs.(o).o_method
let var_method t v = t.vars.(v).v_method
let var_is_app t v = t.vars.(v).v_app
let site_is_ci t i = Bitset.mem t.ci_sites i
let app_locals t = t.app_locals

(* Zero-alloc row iteration. The callback is applied to raw payload ints;
   the paired wrappers below unpack in-register. Rows are contiguous, so
   these compile to a plain counted loop over [dat]. The [off] reads stay
   bounds-checked — they are the only guard an out-of-range node id meets
   (the old snapshot arrays raised here too); the payload reads are safe
   once [off] is, since the builder seals [off] as a monotone prefix sum
   over [dat]. *)
let[@inline] iter_row c v f =
  let stop = c.off.(v + 1) in
  for i = c.off.(v) to stop - 1 do
    f (Array.unsafe_get c.dat i)
  done

let[@inline] iter_row2 c v f =
  let stop = c.off.(v + 1) in
  for i = c.off.(v) to stop - 1 do
    let d = Array.unsafe_get c.dat i in
    f (Pack.hi d) (Pack.lo d)
  done

let[@inline] row_len c v = c.off.(v + 1) - c.off.(v)

let iter_new_in t v f = iter_row t.new_in v f
let iter_new_out t o f = iter_row t.new_out o f
let iter_assign_in t v f = iter_row t.assign_in v f
let iter_assign_out t v f = iter_row t.assign_out v f
let iter_gassign_in t v f = iter_row t.gassign_in v f
let iter_gassign_out t v f = iter_row t.gassign_out v f
let iter_param_in t v f = iter_row2 t.param_in v f
let iter_param_out t v f = iter_row2 t.param_out v f
let iter_ret_in t v f = iter_row2 t.ret_in v f
let iter_ret_out t v f = iter_row2 t.ret_out v f
let iter_load_in t v f = iter_row2 t.load_in v f
let iter_store_out t v f = iter_row2 t.store_out v f

let has_load_in t v = row_len t.load_in v > 0
let has_store_out t v = row_len t.store_out v > 0

let has_stores_of_field t f =
  f >= 0 && f < t.n_fields && row_len t.stores_of_field f > 0

let has_loads_of_field t f =
  f >= 0 && f < t.n_fields && row_len t.loads_of_field f > 0

(* Binary search of a sorted row: the alias test asks this once per
   FlowsTo pair, and a base's row is its distinct fields, usually a few. *)
let[@inline] sorted_row_mem c v x =
  let stop = c.off.(v + 1) in
  let lo = ref c.off.(v) and hi = ref stop in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get c.dat mid < x then lo := mid + 1 else hi := mid
  done;
  !lo < stop && Array.unsafe_get c.dat !lo = x

let is_store_base t v fd = sorted_row_mem t.store_base_fields v fd
let is_load_base t v fd = sorted_row_mem t.load_base_fields v fd

(* Field-indexed rows carry the user-facing bounds contract: a negative
   field id is a caller bug; an id at or past [n_fields] is a legal field
   that simply has no loads/stores (interned but unused), i.e. empty. *)
let[@inline] check_field what f =
  if f < 0 then
    invalid_arg (Printf.sprintf "Pag.%s: negative field %d" what f)

let iter_stores_of_field t fd f =
  check_field "iter_stores_of_field" fd;
  if fd < t.n_fields then iter_row2 t.stores_of_field fd f

let iter_loads_of_field t fd f =
  check_field "iter_loads_of_field" fd;
  if fd < t.n_fields then iter_row2 t.loads_of_field fd f

(* Allocating snapshots of the same rows, for cold callers (serialization,
   dot export, tests) that want materialized arrays. *)
let snap_row c v = Array.sub c.dat c.off.(v) (row_len c v)

let snap_row2 c v =
  let start = c.off.(v) in
  Array.init (row_len c v) (fun i ->
      let d = c.dat.(start + i) in
      (Pack.hi d, Pack.lo d))

let new_in t v = snap_row t.new_in v
let new_out t o = snap_row t.new_out o
let assign_in t v = snap_row t.assign_in v
let assign_out t v = snap_row t.assign_out v
let gassign_in t v = snap_row t.gassign_in v
let gassign_out t v = snap_row t.gassign_out v
let param_in t v = snap_row2 t.param_in v
let param_out t v = snap_row2 t.param_out v
let ret_in t v = snap_row2 t.ret_in v
let ret_out t v = snap_row2 t.ret_out v
let load_in t v = snap_row2 t.load_in v
let store_out t v = snap_row2 t.store_out v

let stores_of_field t f =
  check_field "stores_of_field" f;
  if f < t.n_fields then snap_row2 t.stores_of_field f else [||]

let loads_of_field t f =
  check_field "loads_of_field" f;
  if f < t.n_fields then snap_row2 t.loads_of_field f else [||]

let iter_edges t f =
  for dst = 0 to n_vars t - 1 do
    iter_row t.new_in dst (fun obj -> f (New { dst; obj }))
  done;
  for dst = 0 to n_vars t - 1 do
    iter_row t.assign_in dst (fun src -> f (Assign { dst; src }))
  done;
  for dst = 0 to n_vars t - 1 do
    iter_row t.gassign_in dst (fun src -> f (Assign_global { dst; src }))
  done;
  for dst = 0 to n_vars t - 1 do
    iter_row2 t.load_in dst (fun field base -> f (Load { dst; base; field }))
  done;
  for src = 0 to n_vars t - 1 do
    iter_row2 t.store_out src (fun field base -> f (Store { base; field; src }))
  done;
  for dst = 0 to n_vars t - 1 do
    iter_row2 t.param_in dst (fun site src -> f (Param { dst; site; src }))
  done;
  for dst = 0 to n_vars t - 1 do
    iter_row2 t.ret_in dst (fun site src -> f (Ret { dst; site; src }))
  done

(* Stable dense edge ids over the frozen CSRs, in {!iter_edges} relation
   order (new, assign, gassign, load, store, param, ret). An edge's id is
   its relation's cumulative base plus its position in the relation's
   in-side payload array — [store] is keyed by its source, every other
   relation by its destination — so ids cover [0 .. n_edges-1] densely and
   never change for the lifetime of the frozen graph. Cold path only:
   explain/provenance use these, the solver never does. *)
let edge_bases t =
  let b1 = Array.length t.new_in.dat in
  let b2 = b1 + Array.length t.assign_in.dat in
  let b3 = b2 + Array.length t.gassign_in.dat in
  let b4 = b3 + Array.length t.load_in.dat in
  let b5 = b4 + Array.length t.store_out.dat in
  let b6 = b5 + Array.length t.param_in.dat in
  (b1, b2, b3, b4, b5, b6)

let find_in_row c node payload =
  if node < 0 || node + 1 >= Array.length c.off then None
  else
    let stop = c.off.(node + 1) in
    let rec go i =
      if i >= stop then None
      else if c.dat.(i) = payload then Some i
      else go (i + 1)
    in
    go c.off.(node)

let edge_id t e =
  let b1, b2, b3, b4, b5, b6 = edge_bases t in
  let nv = n_vars t in
  let packed hi lo =
    if hi >= 0 && hi < Pack.hi_limit && lo >= 0 && lo < Pack.lo_limit then
      Some (Pack.unsafe_pack hi lo)
    else None
  in
  let at base = Option.map (fun i -> base + i) in
  match e with
  | New { dst; obj } when dst < nv -> at 0 (find_in_row t.new_in dst obj)
  | Assign { dst; src } when dst < nv ->
      at b1 (find_in_row t.assign_in dst src)
  | Assign_global { dst; src } when dst < nv ->
      at b2 (find_in_row t.gassign_in dst src)
  | Load { dst; base; field } when dst < nv ->
      Option.bind (packed field base) (fun p ->
          at b3 (find_in_row t.load_in dst p))
  | Store { base; field; src } when src < nv ->
      Option.bind (packed field base) (fun p ->
          at b4 (find_in_row t.store_out src p))
  | Param { dst; site; src } when dst < nv ->
      Option.bind (packed site src) (fun p ->
          at b5 (find_in_row t.param_in dst p))
  | Ret { dst; site; src } when dst < nv ->
      Option.bind (packed site src) (fun p ->
          at b6 (find_in_row t.ret_in dst p))
  | _ -> None

(* Largest row v with off.(v) <= k — the row whose payload range holds
   slot k (empty rows share an offset; the rightmost owner is the one
   whose next offset exceeds k). *)
let row_of c k =
  let lo = ref 0 and hi = ref (Array.length c.off - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if c.off.(mid) <= k then lo := mid else hi := mid - 1
  done;
  !lo

let edge_of_id t id =
  if id < 0 || id >= t.n_edges then
    invalid_arg
      (Printf.sprintf "Pag.edge_of_id: id %d out of range (0..%d)" id
         (t.n_edges - 1));
  let b1, b2, b3, b4, b5, b6 = edge_bases t in
  if id < b1 then
    let dst = row_of t.new_in id in
    New { dst; obj = t.new_in.dat.(id) }
  else if id < b2 then
    let k = id - b1 in
    let dst = row_of t.assign_in k in
    Assign { dst; src = t.assign_in.dat.(k) }
  else if id < b3 then
    let k = id - b2 in
    let dst = row_of t.gassign_in k in
    Assign_global { dst; src = t.gassign_in.dat.(k) }
  else if id < b4 then
    let k = id - b3 in
    let dst = row_of t.load_in k in
    let d = t.load_in.dat.(k) in
    Load { dst; base = Pack.lo d; field = Pack.hi d }
  else if id < b5 then
    let k = id - b4 in
    let src = row_of t.store_out k in
    let d = t.store_out.dat.(k) in
    Store { base = Pack.lo d; field = Pack.hi d; src }
  else if id < b6 then
    let k = id - b5 in
    let dst = row_of t.param_in k in
    let d = t.param_in.dat.(k) in
    Param { dst; site = Pack.hi d; src = Pack.lo d }
  else
    let k = id - b6 in
    let dst = row_of t.ret_in k in
    let d = t.ret_in.dat.(k) in
    Ret { dst; site = Pack.hi d; src = Pack.lo d }

let has_edge t e = edge_id t e <> None

let iter_direct_neighbors t v f =
  iter_row t.assign_in v f;
  iter_row t.assign_out v f;
  iter_row t.gassign_in v f;
  iter_row t.gassign_out v f;
  iter_row2 t.param_in v (fun _ y -> f y);
  iter_row2 t.param_out v (fun _ y -> f y);
  iter_row2 t.ret_in v (fun _ y -> f y);
  iter_row2 t.ret_out v (fun _ y -> f y)

let iter_direct_succs t v f =
  (* Value flows src -> dst; successors of v are the dsts of its outgoing
     assign-like edges. *)
  iter_row t.assign_out v f;
  iter_row t.gassign_out v f;
  iter_row2 t.param_out v (fun _ x -> f x);
  iter_row2 t.ret_out v (fun _ x -> f x)

let pp_stats ppf t =
  Format.fprintf ppf "PAG: %d vars, %d objs, %d edges, %d fields" (n_vars t)
    (n_objs t) (n_edges t) t.n_fields
