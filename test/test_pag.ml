module Pag = Parcfl.Pag
module B = Parcfl.Pag.Build

(* A small PAG: o0 -> x -> y (assign), y = p.f / q.f = z, param/ret. *)
let small () =
  let b = B.create () in
  let x = B.add_var b ~typ:1 ~app:true "x" in
  let y = B.add_var b ~typ:1 ~app:true "y" in
  let p = B.add_var b "p" in
  let q = B.add_var b "q" in
  let z = B.add_var b "z" in
  let g = B.add_var b ~global:true "g" in
  let f = B.add_var b "f" in
  let o0 = B.add_obj b ~typ:1 "o0" in
  B.new_edge b ~dst:x o0;
  B.assign b ~dst:y ~src:x;
  B.assign_global b ~dst:g ~src:y;
  B.load b ~dst:y ~base:p 3;
  B.store b ~base:q 3 ~src:z;
  B.param b ~dst:f ~site:11 ~src:x;
  B.ret b ~dst:z ~site:11 ~src:f;
  B.mark_ci_site b 12;
  (B.freeze b, (x, y, p, q, z, g, f, o0))

let test_sizes () =
  let pag, _ = small () in
  Alcotest.(check int) "vars" 7 (Pag.n_vars pag);
  Alcotest.(check int) "objs" 1 (Pag.n_objs pag);
  Alcotest.(check int) "nodes" 8 (Pag.n_nodes pag);
  Alcotest.(check int) "edges" 7 (Pag.n_edges pag);
  Alcotest.(check int) "fields" 4 (Pag.n_fields pag)

let test_attributes () =
  let pag, (x, _, _, _, _, g, _, o0) = small () in
  Alcotest.(check string) "var name" "x" (Pag.var_name pag x);
  Alcotest.(check string) "obj name" "o0" (Pag.obj_name pag o0);
  Alcotest.(check bool) "global" true (Pag.var_is_global pag g);
  Alcotest.(check bool) "local" false (Pag.var_is_global pag x);
  Alcotest.(check int) "typ" 1 (Pag.var_typ pag x);
  Alcotest.(check bool) "app" true (Pag.var_is_app pag x);
  Alcotest.(check bool) "ci site" true (Pag.site_is_ci pag 12);
  Alcotest.(check bool) "cs site" false (Pag.site_is_ci pag 11);
  Alcotest.(check (list int)) "app locals" [ 0; 1 ]
    (Array.to_list (Pag.app_locals pag))

let test_adjacency () =
  let pag, (x, y, p, q, z, g, f, o0) = small () in
  Alcotest.(check (list int)) "new_in x" [ o0 ] (Array.to_list (Pag.new_in pag x));
  Alcotest.(check (list int)) "new_out o0" [ x ] (Array.to_list (Pag.new_out pag o0));
  Alcotest.(check (list int)) "assign_in y" [ x ] (Array.to_list (Pag.assign_in pag y));
  Alcotest.(check (list int)) "assign_out x" [ y ] (Array.to_list (Pag.assign_out pag x));
  Alcotest.(check (list int)) "gassign_in g" [ y ] (Array.to_list (Pag.gassign_in pag g));
  Alcotest.(check (list (pair int int))) "load_in y" [ (3, p) ]
    (Array.to_list (Pag.load_in pag y));
  Alcotest.(check (list (pair int int))) "store_out z" [ (3, q) ]
    (Array.to_list (Pag.store_out pag z));
  Alcotest.(check (list (pair int int))) "stores_of_field" [ (q, z) ]
    (Array.to_list (Pag.stores_of_field pag 3));
  Alcotest.(check (list (pair int int))) "loads_of_field" [ (y, p) ]
    (Array.to_list (Pag.loads_of_field pag 3));
  Alcotest.(check (list (pair int int))) "stores of absent field" []
    (Array.to_list (Pag.stores_of_field pag 99));
  Alcotest.(check (list (pair int int))) "param_in f" [ (11, x) ]
    (Array.to_list (Pag.param_in pag f));
  Alcotest.(check (list (pair int int))) "ret_in z" [ (11, f) ]
    (Array.to_list (Pag.ret_in pag z))

let test_iter_edges () =
  let pag, _ = small () in
  let n = ref 0 in
  Pag.iter_edges pag (fun _ -> incr n);
  Alcotest.(check int) "iter_edges count = n_edges" (Pag.n_edges pag) !n

let test_direct_neighbors () =
  let pag, (x, y, _, _, z, g, f, _) = small () in
  let neighbors v =
    let out = ref [] in
    Pag.iter_direct_neighbors pag v (fun w -> out := w :: !out);
    List.sort_uniq compare !out
  in
  (* x: assign to y, param to f. Loads/stores excluded (eq. 5). *)
  Alcotest.(check (list int)) "x neighbors" (List.sort compare [ y; f ])
    (neighbors x);
  Alcotest.(check (list int)) "g neighbors" [ y ] (neighbors g);
  let succs v =
    let out = ref [] in
    Pag.iter_direct_succs pag v (fun w -> out := w :: !out);
    List.sort_uniq compare !out
  in
  Alcotest.(check (list int)) "x succs" (List.sort compare [ y; f ]) (succs x);
  Alcotest.(check (list int)) "f succs" [ z ] (succs f);
  Alcotest.(check (list int)) "z succs" [] (succs z)

let test_iter_adjacency () =
  let pag, (x, y, p, q, z, g, f, o0) = small () in
  let row1 iter v =
    let out = ref [] in
    iter pag v (fun a -> out := a :: !out);
    List.rev !out
  in
  let row2 iter v =
    let out = ref [] in
    iter pag v (fun a b -> out := (a, b) :: !out);
    List.rev !out
  in
  Alcotest.(check (list int)) "iter_new_in x" [ o0 ] (row1 Pag.iter_new_in x);
  Alcotest.(check (list int)) "iter_new_out o0" [ x ]
    (row1 Pag.iter_new_out o0);
  Alcotest.(check (list int)) "iter_assign_in y" [ x ]
    (row1 Pag.iter_assign_in y);
  Alcotest.(check (list int)) "iter_gassign_in g" [ y ]
    (row1 Pag.iter_gassign_in g);
  Alcotest.(check (list (pair int int))) "iter_load_in y" [ (3, p) ]
    (row2 Pag.iter_load_in y);
  Alcotest.(check (list (pair int int))) "iter_store_out z" [ (3, q) ]
    (row2 Pag.iter_store_out z);
  Alcotest.(check (list (pair int int))) "iter_param_in f" [ (11, x) ]
    (row2 Pag.iter_param_in f);
  Alcotest.(check (list (pair int int))) "iter_ret_in z" [ (11, f) ]
    (row2 Pag.iter_ret_in z);
  Alcotest.(check (list (pair int int))) "iter_stores_of_field" [ (q, z) ]
    (row2 Pag.iter_stores_of_field 3);
  Alcotest.(check (list (pair int int))) "iter_loads_of_field" [ (y, p) ]
    (row2 Pag.iter_loads_of_field 3);
  Alcotest.(check bool) "has_load_in y" true (Pag.has_load_in pag y);
  Alcotest.(check bool) "has_load_in x" false (Pag.has_load_in pag x);
  Alcotest.(check bool) "has_store_out z" true (Pag.has_store_out pag z);
  Alcotest.(check bool) "has_stores_of_field 3" true
    (Pag.has_stores_of_field pag 3);
  Alcotest.(check bool) "has_stores_of_field absent" false
    (Pag.has_stores_of_field pag 2)

let test_field_bounds () =
  let pag, _ = small () in
  (* Field ids at or beyond n_fields are interned-but-unused: legal, empty. *)
  let beyond = Pag.n_fields pag + 5 in
  Alcotest.(check (list (pair int int))) "stores beyond n_fields" []
    (Array.to_list (Pag.stores_of_field pag beyond));
  Alcotest.(check (list (pair int int))) "loads beyond n_fields" []
    (Array.to_list (Pag.loads_of_field pag beyond));
  let count = ref 0 in
  Pag.iter_stores_of_field pag beyond (fun _ _ -> incr count);
  Pag.iter_loads_of_field pag beyond (fun _ _ -> incr count);
  Alcotest.(check int) "iterators beyond n_fields yield nothing" 0 !count;
  Alcotest.(check bool) "has_stores beyond" false
    (Pag.has_stores_of_field pag beyond);
  (* Negative ids are caller bugs, not interned fields: rejected loudly. *)
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument on -1" name
  in
  expect_invalid "stores_of_field" (fun () ->
      ignore (Pag.stores_of_field pag (-1)));
  expect_invalid "loads_of_field" (fun () ->
      ignore (Pag.loads_of_field pag (-1)));
  expect_invalid "iter_stores_of_field" (fun () ->
      Pag.iter_stores_of_field pag (-1) (fun _ _ -> ()));
  expect_invalid "iter_loads_of_field" (fun () ->
      Pag.iter_loads_of_field pag (-1) (fun _ _ -> ()))

(* CSR-vs-snapshot parity on randomized graphs: the zero-alloc iterators and
   the allocating snapshot arrays are two views of the same frozen rows and
   must agree element-for-element, in order, for every node. *)
let prop_csr_parity =
  let gen =
    QCheck.make
      ~print:(fun ops -> string_of_int (List.length ops))
      QCheck.Gen.(
        small_list
          (tup4 (int_bound 6) (int_bound 11) (int_bound 11) (int_bound 4)))
  in
  QCheck.Test.make ~name:"CSR iterators match snapshot arrays" ~count:100 gen
    (fun ops ->
      let b = B.create () in
      let vars = Array.init 12 (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
      let objs = Array.init 4 (fun i -> B.add_obj b (Printf.sprintf "o%d" i)) in
      List.iter
        (fun (kind, a, c, aux) ->
          let va = vars.(a) and vc = vars.(c) in
          match kind with
          | 0 -> B.new_edge b ~dst:va objs.(aux mod Array.length objs)
          | 1 -> B.assign b ~dst:va ~src:vc
          | 2 -> B.assign_global b ~dst:va ~src:vc
          | 3 -> B.load b ~dst:va ~base:vc aux
          | 4 -> B.store b ~base:va aux ~src:vc
          | 5 -> B.param b ~dst:va ~site:aux ~src:vc
          | _ -> B.ret b ~dst:va ~site:aux ~src:vc)
        ops;
      let pag = B.freeze b in
      let row1 iter v =
        let out = ref [] in
        iter pag v (fun a -> out := a :: !out);
        List.rev !out
      in
      let row2 iter v =
        let out = ref [] in
        iter pag v (fun a b -> out := (a, b) :: !out);
        List.rev !out
      in
      let ok = ref true in
      let check_row got want = if got <> Array.to_list want then ok := false in
      Array.iter
        (fun v ->
          check_row (row1 Pag.iter_new_in v) (Pag.new_in pag v);
          check_row (row1 Pag.iter_assign_in v) (Pag.assign_in pag v);
          check_row (row1 Pag.iter_assign_out v) (Pag.assign_out pag v);
          check_row (row1 Pag.iter_gassign_in v) (Pag.gassign_in pag v);
          check_row (row1 Pag.iter_gassign_out v) (Pag.gassign_out pag v);
          check_row (row2 Pag.iter_load_in v) (Pag.load_in pag v);
          check_row (row2 Pag.iter_store_out v) (Pag.store_out pag v);
          check_row (row2 Pag.iter_param_in v) (Pag.param_in pag v);
          check_row (row2 Pag.iter_param_out v) (Pag.param_out pag v);
          check_row (row2 Pag.iter_ret_in v) (Pag.ret_in pag v);
          check_row (row2 Pag.iter_ret_out v) (Pag.ret_out pag v);
          if Pag.has_load_in pag v <> (Array.length (Pag.load_in pag v) > 0)
          then ok := false;
          if Pag.has_store_out pag v <> (Array.length (Pag.store_out pag v) > 0)
          then ok := false)
        vars;
      Array.iter
        (fun o -> check_row (row1 Pag.iter_new_out o) (Pag.new_out pag o))
        objs;
      for f = 0 to Pag.n_fields pag - 1 do
        check_row (row2 Pag.iter_stores_of_field f) (Pag.stores_of_field pag f);
        check_row (row2 Pag.iter_loads_of_field f) (Pag.loads_of_field pag f);
        if Pag.has_stores_of_field pag f
           <> (Array.length (Pag.stores_of_field pag f) > 0)
        then ok := false
      done;
      !ok)

(* The alias test's base index ([is_store_base]/[is_load_base]) against a
   brute-force scan of the field-indexed rows: for every variable and every
   field id (plus one past [n_fields]), membership must match exactly. *)
let base_index_agrees pag =
  let stores = Hashtbl.create 64 and loads = Hashtbl.create 64 in
  for f = 0 to Pag.n_fields pag - 1 do
    Array.iter (fun (q, _) -> Hashtbl.replace stores (q, f) ())
      (Pag.stores_of_field pag f);
    Array.iter (fun (_, p) -> Hashtbl.replace loads (p, f) ())
      (Pag.loads_of_field pag f)
  done;
  let ok = ref true in
  for v = 0 to Pag.n_vars pag - 1 do
    for f = 0 to Pag.n_fields pag do
      if Pag.is_store_base pag v f <> Hashtbl.mem stores (v, f) then ok := false;
      if Pag.is_load_base pag v f <> Hashtbl.mem loads (v, f) then ok := false
    done
  done;
  !ok

let test_base_index_small () =
  let pag, (x, y, p, q, _, _, _, _) = small () in
  Alcotest.(check bool) "q stores f3" true (Pag.is_store_base pag q 3);
  Alcotest.(check bool) "p loads f3" true (Pag.is_load_base pag p 3);
  Alcotest.(check bool) "p stores nothing" false (Pag.is_store_base pag p 3);
  Alcotest.(check bool) "q loads nothing" false (Pag.is_load_base pag q 3);
  Alcotest.(check bool) "other field" false (Pag.is_store_base pag q 2);
  Alcotest.(check bool) "non-base" false
    (Pag.is_store_base pag x 3 || Pag.is_load_base pag y 3);
  Alcotest.(check bool) "agrees with scan" true (base_index_agrees pag)

let test_base_index_profiles () =
  List.iter
    (fun prof ->
      let b = Parcfl.Suite.build prof in
      Alcotest.(check bool)
        (prof.Parcfl.Profile.name ^ " base index = scan")
        true
        (base_index_agrees b.Parcfl.Suite.pag))
    Parcfl.Profile.all

(* Random PAGs with repeated (base, field) pairs and a few fields. *)
let prop_base_index =
  let gen =
    QCheck.make
      ~print:(fun ops -> string_of_int (List.length ops))
      QCheck.Gen.(
        list_size (int_bound 60)
          (tup4 bool (int_bound 9) (int_bound 9) (int_bound 5)))
  in
  QCheck.Test.make ~name:"base index matches field-row scan" ~count:200 gen
    (fun ops ->
      let b = B.create () in
      let vars = Array.init 10 (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
      List.iter
        (fun (is_store, a, c, f) ->
          if is_store then B.store b ~base:vars.(a) f ~src:vars.(c)
          else B.load b ~dst:vars.(c) ~base:vars.(a) f)
        ops;
      base_index_agrees (B.freeze b))

let test_builder_validation () =
  let b = B.create () in
  let x = B.add_var b "x" in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Pag.Build.assign: unknown variable 5") (fun () ->
      B.assign b ~dst:x ~src:5);
  Alcotest.check_raises "unknown obj"
    (Invalid_argument "Pag.Build.new_edge: unknown object 0") (fun () ->
      B.new_edge b ~dst:x 0)

let test_dot () =
  let pag, _ = small () in
  let dot = Parcfl.Dot.to_string pag in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let ln = String.length needle and lh = String.length dot in
    let rec go i = i + ln <= lh && (String.sub dot i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has new edge" true (contains "new");
  Alcotest.(check bool) "has ld(3)" true (contains "ld(3)")

let suite =
  ( "pag",
    [
      Alcotest.test_case "sizes" `Quick test_sizes;
      Alcotest.test_case "attributes" `Quick test_attributes;
      Alcotest.test_case "adjacency" `Quick test_adjacency;
      Alcotest.test_case "iterator adjacency" `Quick test_iter_adjacency;
      Alcotest.test_case "field id bounds" `Quick test_field_bounds;
      QCheck_alcotest.to_alcotest prop_csr_parity;
      Alcotest.test_case "base index (small)" `Quick test_base_index_small;
      Alcotest.test_case "base index on all profiles" `Quick
        test_base_index_profiles;
      QCheck_alcotest.to_alcotest prop_base_index;
      Alcotest.test_case "iter_edges" `Quick test_iter_edges;
      Alcotest.test_case "direct neighbors" `Quick test_direct_neighbors;
      Alcotest.test_case "builder validation" `Quick test_builder_validation;
      Alcotest.test_case "dot export" `Quick test_dot;
    ] )
