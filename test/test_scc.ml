module Scc = Parcfl.Scc

let compute n edges =
  let adj = Array.make n [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  (Scc.compute ~n ~succs:(fun v -> adj.(v)), fun v -> adj.(v))

let test_chain () =
  let scc, _ = compute 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "4 comps" 4 scc.Scc.n_comps;
  (* Reverse topological numbering: an edge u->v has comp(u) >= comp(v). *)
  Alcotest.(check bool) "topo order" true
    (scc.Scc.comp_of.(0) > scc.Scc.comp_of.(1)
    && scc.Scc.comp_of.(1) > scc.Scc.comp_of.(2)
    && scc.Scc.comp_of.(2) > scc.Scc.comp_of.(3))

let test_cycle () =
  let scc, _ = compute 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ] in
  Alcotest.(check int) "2 comps" 2 scc.Scc.n_comps;
  Alcotest.(check bool) "0,1,2 together" true
    (scc.Scc.comp_of.(0) = scc.Scc.comp_of.(1)
    && scc.Scc.comp_of.(1) = scc.Scc.comp_of.(2));
  Alcotest.(check bool) "3,4 together" true
    (scc.Scc.comp_of.(3) = scc.Scc.comp_of.(4));
  Alcotest.(check bool) "cycle comp not trivial" false
    (Scc.is_trivial scc scc.Scc.comp_of.(0))

let test_self_loop () =
  let scc, _ = compute 2 [ (0, 0); (0, 1) ] in
  Alcotest.(check int) "2 comps" 2 scc.Scc.n_comps;
  (* A self-loop keeps the component a singleton. *)
  Alcotest.(check bool) "trivial by member count" true
    (Scc.is_trivial scc scc.Scc.comp_of.(0))

(* The regression has_self_loop exists to prevent: a self-looped singleton
   is trivial by member count but still cyclic — callers asking "does this
   component contain a cycle?" must not use is_trivial alone. *)
let test_has_self_loop () =
  let scc, succs = compute 4 [ (0, 0); (0, 1); (2, 3); (3, 2) ] in
  Alcotest.(check bool) "self-looped singleton is cyclic" true
    (Scc.has_self_loop scc ~succs scc.Scc.comp_of.(0));
  Alcotest.(check bool) "but still trivial by member count" true
    (Scc.is_trivial scc scc.Scc.comp_of.(0));
  Alcotest.(check bool) "plain singleton is acyclic" false
    (Scc.has_self_loop scc ~succs scc.Scc.comp_of.(1));
  Alcotest.(check bool) "multi-member component is cyclic" true
    (Scc.has_self_loop scc ~succs scc.Scc.comp_of.(2))

let test_condensation () =
  let scc, succs = compute 6 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (4, 5) ] in
  let dag = Scc.condensation scc ~succs in
  Alcotest.(check int) "4 comps" 4 scc.Scc.n_comps;
  (* DAG edges never point upward in the id order. *)
  Array.iteri
    (fun c succ ->
      List.iter
        (fun c' ->
          Alcotest.(check bool) "reverse-topo edge" true (c' < c))
        succ)
    dag;
  (* No self loops. *)
  Array.iteri
    (fun c succ ->
      Alcotest.(check bool) "no self loop" false (List.mem c succ))
    dag

let test_longest_path () =
  (* 0 -> 1 -> 2 and 0 -> 2: path 0,1,2 has weight 3 through each node. *)
  let scc, succs = compute 3 [ (0, 1); (1, 2); (0, 2) ] in
  let dag = Scc.condensation scc ~succs in
  let weight c = List.length scc.Scc.members.(c) in
  let through = Scc.longest_path_through ~dag ~weight in
  Array.iteri
    (fun v _ ->
      Alcotest.(check int)
        (Printf.sprintf "node %d on heaviest path" v)
        3
        through.(scc.Scc.comp_of.(v)))
    [| 0; 1; 2 |]

let test_longest_path_branch () =
  (* 0 -> 1, 0 -> 2 -> 3: node 1 lies on a path of 2, node 3 on a path of 3. *)
  let scc, succs = compute 4 [ (0, 1); (0, 2); (2, 3) ] in
  let dag = Scc.condensation scc ~succs in
  let weight c = List.length scc.Scc.members.(c) in
  let through = Scc.longest_path_through ~dag ~weight in
  Alcotest.(check int) "short branch" 2 through.(scc.Scc.comp_of.(1));
  Alcotest.(check int) "long branch" 3 through.(scc.Scc.comp_of.(3));
  Alcotest.(check int) "root" 3 through.(scc.Scc.comp_of.(0))

(* Property: same component iff mutually reachable (checked against a
   transitive closure on small random graphs). *)
let prop_scc_reachability =
  let gen =
    QCheck.Gen.(
      sized_size (int_bound 7) (fun n ->
          let n = n + 1 in
          list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1)))
          >>= fun edges -> return (n, edges)))
  in
  QCheck.Test.make ~name:"same comp iff mutually reachable" ~count:300
    (QCheck.make gen) (fun (n, edges) ->
      let scc, _ = compute n edges in
      let reach = Array.make_matrix n n false in
      for v = 0 to n - 1 do
        reach.(v).(v) <- true
      done;
      List.iter (fun (u, v) -> reach.(u).(v) <- true) edges;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let same = scc.Scc.comp_of.(i) = scc.Scc.comp_of.(j) in
          let mutual = reach.(i).(j) && reach.(j).(i) in
          if same <> mutual then ok := false
        done
      done;
      !ok)

(* The list-based Tarjan and Hashtbl-deduped condensation that the
   int-array version replaced, kept verbatim as the numbering reference:
   connection distances and type levels rely on the exact reverse
   topological ids, so the rewrite must reproduce them, not merely some
   valid SCC numbering. *)
module Reference = struct
  let compute ~n ~succs =
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let stack = ref [] in
    let comp_of = Array.make n (-1) in
    let n_comps = ref 0 in
    let counter = ref 0 in
    let members_rev = ref [] in
    let visit root =
      if index.(root) < 0 then begin
        let frames = ref [ (root, ref (succs root)) ] in
        index.(root) <- !counter;
        lowlink.(root) <- !counter;
        incr counter;
        stack := root :: !stack;
        on_stack.(root) <- true;
        while !frames <> [] do
          match !frames with
          | [] -> ()
          | (v, rest) :: tail -> (
              match !rest with
              | w :: ws ->
                  rest := ws;
                  if index.(w) < 0 then begin
                    index.(w) <- !counter;
                    lowlink.(w) <- !counter;
                    incr counter;
                    stack := w :: !stack;
                    on_stack.(w) <- true;
                    frames := (w, ref (succs w)) :: !frames
                  end
                  else if on_stack.(w) then
                    lowlink.(v) <- min lowlink.(v) index.(w)
              | [] ->
                  frames := tail;
                  (match tail with
                  | (parent, _) :: _ ->
                      lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
                  | [] -> ());
                  if lowlink.(v) = index.(v) then begin
                    let c = !n_comps in
                    incr n_comps;
                    let mem = ref [] in
                    let continue = ref true in
                    while !continue do
                      match !stack with
                      | [] -> continue := false
                      | w :: rest_stack ->
                          stack := rest_stack;
                          on_stack.(w) <- false;
                          comp_of.(w) <- c;
                          mem := w :: !mem;
                          if w = v then continue := false
                    done;
                    members_rev := !mem :: !members_rev
                  end)
        done
      end
    in
    for v = 0 to n - 1 do
      visit v
    done;
    let members = Array.of_list (List.rev !members_rev) in
    { Scc.comp_of; n_comps = !n_comps; members }

  let condensation (t : Scc.t) ~succs =
    let dag = Array.make t.Scc.n_comps [] in
    let seen = Hashtbl.create 64 in
    Array.iteri
      (fun c mem ->
        List.iter
          (fun v ->
            List.iter
              (fun w ->
                let c' = t.Scc.comp_of.(w) in
                if c' <> c && not (Hashtbl.mem seen (c, c')) then begin
                  Hashtbl.add seen (c, c') ();
                  dag.(c) <- c' :: dag.(c)
                end)
              (succs v))
          mem)
      t.Scc.members;
    dag
end

let prop_same_as_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 60 >>= fun n ->
      list_size (int_bound 180) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun edges -> return (n, edges))
  in
  QCheck.Test.make ~name:"numbering and condensation equal the reference"
    ~count:300 (QCheck.make gen) (fun (n, edges) ->
      let scc, succs = compute n edges in
      let want = Reference.compute ~n ~succs in
      scc.Scc.n_comps = want.Scc.n_comps
      && scc.Scc.comp_of = want.Scc.comp_of
      && scc.Scc.members = want.Scc.members
      && Scc.condensation scc ~succs = Reference.condensation want ~succs)

let suite =
  ( "scc",
    [
      Alcotest.test_case "chain" `Quick test_chain;
      Alcotest.test_case "cycle" `Quick test_cycle;
      Alcotest.test_case "self loop" `Quick test_self_loop;
      Alcotest.test_case "has_self_loop vs is_trivial" `Quick
        test_has_self_loop;
      Alcotest.test_case "condensation" `Quick test_condensation;
      Alcotest.test_case "longest path (diamondish)" `Quick test_longest_path;
      Alcotest.test_case "longest path (branch)" `Quick test_longest_path_branch;
      QCheck_alcotest.to_alcotest prop_scc_reachability;
      QCheck_alcotest.to_alcotest prop_same_as_reference;
    ] )
