(* Query scheduling: grouping by the direct relation, connection
   distances, DD ordering, split/merge load balancing. *)
module Pag = Parcfl.Pag
module B = Parcfl.Pag.Build
module Schedule = Parcfl.Schedule

(* Two components linked only by a load/store (which does NOT connect):
     comp1: a -> b -> c (assigns)
     comp2: d -> e (param), plus the load c = d.f (no direct edge). *)
let two_components () =
  let b = B.create () in
  let va = B.add_var b ~typ:1 ~app:true "a" in
  let vb = B.add_var b ~typ:1 ~app:true "b" in
  let vc = B.add_var b ~typ:1 ~app:true "c" in
  let vd = B.add_var b ~typ:2 ~app:true "d" in
  let ve = B.add_var b ~typ:2 ~app:true "e" in
  B.assign b ~dst:vb ~src:va;
  B.assign b ~dst:vc ~src:vb;
  B.param b ~dst:ve ~site:1 ~src:vd;
  B.load b ~dst:vc ~base:vd 0;
  (B.freeze b, (va, vb, vc, vd, ve))

let test_grouping () =
  let pag, (va, vb, vc, vd, ve) = two_components () in
  let sched =
    Schedule.build ~pag ~type_level:(fun _ -> 1) [| va; vb; vc; vd; ve |]
  in
  Alcotest.(check int) "two components" 2 sched.Schedule.n_components;
  (* Load edges must not merge the components. *)
  let find_group v =
    let found = ref (-1) in
    Array.iteri
      (fun i g -> if Array.exists (fun x -> x = v) g then found := i)
      sched.Schedule.groups;
    !found
  in
  Alcotest.(check bool) "a,b,c together" true
    (find_group va = find_group vb && find_group vb = find_group vc);
  Alcotest.(check bool) "d,e together" true (find_group vd = find_group ve);
  Alcotest.(check bool) "components separate" true
    (find_group va <> find_group vd)

let test_cd () =
  (* Chain v0 -> v1 -> v2 -> v3 plus a short branch v4 -> v2: the heaviest
     path through every chain node is 4; through v4 it is 3. *)
  let b = B.create () in
  let v = Array.init 5 (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
  B.assign b ~dst:v.(1) ~src:v.(0);
  B.assign b ~dst:v.(2) ~src:v.(1);
  B.assign b ~dst:v.(3) ~src:v.(2);
  B.assign b ~dst:v.(2) ~src:v.(4);
  let pag = B.freeze b in
  let cd = Schedule.connection_distances ~pag in
  Alcotest.(check int) "cd v0" 4 cd.(0);
  Alcotest.(check int) "cd v3" 4 cd.(3);
  Alcotest.(check int) "cd v4" 3 cd.(4)

let test_cd_recursion_collapsed () =
  (* A cycle counts once ("modulo recursion"): v0 <-> v1 -> v2. *)
  let b = B.create () in
  let v = Array.init 3 (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
  B.assign b ~dst:v.(1) ~src:v.(0);
  B.assign b ~dst:v.(0) ~src:v.(1);
  B.assign b ~dst:v.(2) ~src:v.(1);
  let pag = B.freeze b in
  let cd = Schedule.connection_distances ~pag in
  (* SCC {v0,v1} weighs 2; longest path through all nodes = 3. *)
  Alcotest.(check int) "cd v0" 3 cd.(0);
  Alcotest.(check int) "cd v2" 3 cd.(2)

let test_dd_ordering () =
  (* Deep-typed group must be issued before shallow-typed group. *)
  let b = B.create () in
  let deep1 = B.add_var b ~typ:10 ~app:true "deep1" in
  let deep2 = B.add_var b ~typ:10 ~app:true "deep2" in
  let shallow1 = B.add_var b ~typ:1 ~app:true "s1" in
  let shallow2 = B.add_var b ~typ:1 ~app:true "s2" in
  B.assign b ~dst:deep2 ~src:deep1;
  B.assign b ~dst:shallow2 ~src:shallow1;
  let pag = B.freeze b in
  let type_level t = t (* type id doubles as its level *) in
  let sched =
    Schedule.build ~pag ~type_level [| shallow1; shallow2; deep1; deep2 |]
  in
  let flat = Array.to_list (Schedule.flat_order sched) in
  let pos v =
    let rec go i = function
      | [] -> -1
      | x :: _ when x = v -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 flat
  in
  Alcotest.(check bool) "deep group first" true (pos deep1 < pos shallow1)

let test_cd_ordering_within_group () =
  (* Within one chain component, shorter-CD variables come first. All chain
     members share the same longest path, so add a side branch to create
     distinct CDs: hub has larger CD than leaf. *)
  let b = B.create () in
  let hub = B.add_var b ~typ:1 ~app:true "hub" in
  let leaf = B.add_var b ~typ:1 ~app:true "leaf" in
  let c1 = B.add_var b ~typ:1 ~app:true "c1" in
  let c2 = B.add_var b ~typ:1 ~app:true "c2" in
  B.assign b ~dst:hub ~src:c1;
  B.assign b ~dst:c2 ~src:hub;
  B.assign b ~dst:leaf ~src:hub (* leaf dead-ends *);
  let pag = B.freeze b in
  let sched =
    Schedule.build ~pag ~type_level:(fun _ -> 1) [| hub; leaf; c1; c2 |]
  in
  let flat = Array.to_list (Schedule.flat_order sched) in
  let pos v =
    let rec go i = function
      | [] -> -1
      | x :: _ when x = v -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 flat
  in
  Alcotest.(check bool) "leaf (CD 3) before hub (CD 3)... deterministic" true
    (pos leaf >= 0 && pos hub >= 0);
  (* leaf lies on a path of 3 (c1-hub-leaf), hub on a path of 3 too; c1/c2
     tie. The real assertion: order is by (CD, id) and total. *)
  let cd = Schedule.connection_distances ~pag in
  let rec sorted = function
    | a :: b :: tl ->
        (cd.(a) < cd.(b) || (cd.(a) = cd.(b) && a < b)) && sorted (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "group sorted by (CD, id)" true (sorted flat)

let test_split_merge () =
  (* 1 big component (12 vars) and 4 singletons: mean ~3.2, so the big one
     splits and the singletons merge. *)
  let b = B.create () in
  let big = Array.init 12 (fun i -> B.add_var b ~app:true (Printf.sprintf "b%d" i)) in
  for i = 1 to 11 do
    B.assign b ~dst:big.(i) ~src:big.(i - 1)
  done;
  let singles = Array.init 4 (fun i -> B.add_var b ~app:true (Printf.sprintf "s%d" i)) in
  let pag = B.freeze b in
  let queries = Array.append big singles in
  let sched = Schedule.build ~pag ~type_level:(fun _ -> 1) queries in
  Alcotest.(check int) "components" 5 sched.Schedule.n_components;
  (* All units are reasonably sized: none more than ~2x the mean. *)
  Array.iter
    (fun g ->
      Alcotest.(check bool) "unit size bounded" true (Array.length g <= 7))
    sched.Schedule.groups;
  Alcotest.(check bool) "more units than components" true
    (Array.length sched.Schedule.groups >= 5)

let bench_tiny = lazy (Parcfl.Suite.build Parcfl.Profile.tiny)

let prop_flat_order_permutation =
  QCheck.Test.make ~name:"flat_order is a permutation of the queries" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      ignore seed;
      let bench = Parcfl.Suite.build Parcfl.Profile.tiny in
      let sched =
        Schedule.build ~pag:bench.Parcfl.Suite.pag
          ~type_level:bench.Parcfl.Suite.type_level
          bench.Parcfl.Suite.queries
      in
      let flat = Array.to_list (Schedule.flat_order sched) in
      List.sort compare flat
      = List.sort compare (Array.to_list bench.Parcfl.Suite.queries))

(* ------------------------ per-program plan memo ------------------------ *)

let profiles = lazy (List.map Parcfl.Suite.build Parcfl.Profile.all)

(* The memoised plan is the from-scratch one: same component roots, dense
   ids, CD and DD order (plans are immutable int arrays, so structural
   equality compares all of them), and a second call returns the very same
   plan. *)
let test_memo_equals_prepare () =
  List.iter
    (fun (b : Parcfl.Suite.t) ->
      let pag = b.Parcfl.Suite.pag and type_level = b.Parcfl.Suite.type_level in
      let name = b.Parcfl.Suite.profile.Parcfl.Profile.name in
      let memo = Schedule.plan_for ~pag ~type_level in
      Alcotest.(check bool) (name ^ " equals prepare") true
        (memo = Schedule.prepare ~pag ~type_level);
      Alcotest.(check bool) (name ^ " reused") true
        (Schedule.plan_for ~pag ~type_level == memo))
    (Lazy.force profiles)

let plan_weakly weak i ~pag ~type_level =
  Weak.set weak i (Some (Schedule.plan_for ~pag ~type_level))
[@@inline never]

let test_memo_keys () =
  let b = Lazy.force bench_tiny in
  let pag = b.Parcfl.Suite.pag and level = b.Parcfl.Suite.type_level in
  let first = Schedule.plan_for ~pag ~type_level:level in
  (* A new PAG of the same program gets its own plan. *)
  let other = Parcfl.Suite.build Parcfl.Profile.tiny in
  let p_other =
    Schedule.plan_for ~pag:other.Parcfl.Suite.pag ~type_level:level
  in
  Alcotest.(check bool) "new PAG, new plan" false (p_other == first);
  (* A new type_level closure on the same PAG gets a new plan... *)
  let fresh k = fun t -> level t + (k * 0) in
  let p_fresh = Schedule.plan_for ~pag ~type_level:(fresh 1) in
  Alcotest.(check bool) "new type_level, new plan" false (p_fresh == first);
  Alcotest.(check bool) "same content" true (p_fresh = first);
  (* ...that replaces the slot rather than adding one: while the PAG lives,
     the memo keeps only the latest closure's plan. *)
  let plans = Weak.create 10 in
  for k = 0 to 9 do
    plan_weakly plans k ~pag ~type_level:(fresh (k + 2))
  done;
  Gc.full_major ();
  for k = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "replaced plan %d collected" k)
      false (Weak.check plans k)
  done;
  Alcotest.(check bool) "latest plan kept" true (Weak.check plans 9);
  ignore (Sys.opaque_identity (pag, other))

(* The memo holds graphs weakly: once nothing else references a PAG, its
   plan does not keep it alive — including a graph an engine replaced. *)
let plan_and_forget weak i =
  let b = Parcfl.Suite.build Parcfl.Profile.tiny in
  ignore
    (Schedule.plan_for ~pag:b.Parcfl.Suite.pag
       ~type_level:b.Parcfl.Suite.type_level);
  Weak.set weak i (Some b.Parcfl.Suite.pag)
[@@inline never]

let engine_load_and_forget weak i =
  let b = Parcfl.Suite.build Parcfl.Profile.tiny in
  let engine =
    Parcfl.Svc_engine.create ~threads:1 ~type_level:b.Parcfl.Suite.type_level
      b.Parcfl.Suite.pag
  in
  Weak.set weak i (Some b.Parcfl.Suite.pag);
  let next = Parcfl.Suite.build Parcfl.Profile.tiny in
  Parcfl.Svc_engine.load engine ~type_level:next.Parcfl.Suite.type_level
    next.Parcfl.Suite.pag;
  engine
[@@inline never]

let test_memo_weak () =
  let weak = Weak.create 2 in
  plan_and_forget weak 0;
  let engine = engine_load_and_forget weak 1 in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped PAG collected" false (Weak.check weak 0);
  Alcotest.(check bool) "PAG replaced by load collected" false
    (Weak.check weak 1);
  ignore (Sys.opaque_identity engine)

(* Golden groups: [Schedule.build] on every profile's query set (plus two
   skewed samples with duplicates), under all four ordering knobs, digests
   to what the Hashtbl/List.sort implementation produced before the plan
   became arrays and batches were grouped by counting sort. *)
let render_schedule (s : Schedule.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d|%h|" s.Schedule.n_components s.Schedule.mean_group_size;
  Array.iter
    (fun g ->
      Array.iter (fun v -> Printf.bprintf b "%d," v) g;
      Buffer.add_char b ';')
    s.Schedule.groups;
  Buffer.contents b

let golden_groups =
  [
    ("_200_check", "243359deb00c486d7830f42bea496f03");
    ("_201_compress", "99278c72a957a65762abec55db170810");
    ("_202_jess", "f879005e3ecdc2cf63889e42e6dd1894");
    ("_205_raytrace", "03377f7704282833bce13478a0cef7ea");
    ("_209_db", "becad4c6942a817642a8ea3ef5041042");
    ("_213_javac", "cd1fc713780da491a72e100aad3efcc8");
    ("_222_mpegaudio", "896d3da5a17564768a78f6f8b398347a");
    ("_227_mtrt", "50ca2879a8d0f48d9c72aecab0b339c8");
    ("_228_jack", "76c5e024e2b8365d395112f0264c0e16");
    ("_999_checkit", "964a5dae22f87d4cbb59767ebaeeca67");
    ("avrora", "eede9bee1ad72ae04a8af120da3accf4");
    ("batik", "66da12ace119a9c3d642ead965d10fac");
    ("fop", "3c9e2172f6cedf9f828f9d3d04cd255e");
    ("h2", "0629f1f72ecfc76b2de9e871ff30336f");
    ("luindex", "7b181c1666f467e5b317216d29ba0a62");
    ("lusearch", "2dba36ea09eb1d500ab23129ab40b29c");
    ("pmd", "1ef875572786c95db8a762e4fd9f53ba");
    ("sunflow", "18e9d40fa23ba8eb8762b9ff67ba4111");
    ("tomcat", "be48994a9f9557d6cb9ee8cf2a7f8f20");
    ("xalan", "9b528226712585839d6d95bdf40e40a7");
  ]

let test_golden_groups () =
  List.iter
    (fun (b : Parcfl.Suite.t) ->
      let pag = b.Parcfl.Suite.pag and type_level = b.Parcfl.Suite.type_level in
      let name = b.Parcfl.Suite.profile.Parcfl.Profile.name in
      let sets =
        [
          b.Parcfl.Suite.queries;
          Parcfl.Suite.query_mix ~seed:7 b ~n:64;
          Parcfl.Suite.query_mix ~seed:8 b ~n:5;
        ]
      in
      let buf = Buffer.create 4096 in
      List.iter
        (fun qs ->
          List.iter
            (fun (w, a) ->
              Buffer.add_string buf
                (render_schedule
                   (Schedule.build ~order_within:w ~order_across:a ~pag
                      ~type_level qs)))
            [ (true, true); (true, false); (false, true); (false, false) ])
        sets;
      Alcotest.(check string) (name ^ " groups digest")
        (List.assoc name golden_groups)
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    (Lazy.force profiles)

let suite =
  ( "sched",
    [
      Alcotest.test_case "grouping by direct relation" `Quick test_grouping;
      Alcotest.test_case "connection distances" `Quick test_cd;
      Alcotest.test_case "CD modulo recursion" `Quick test_cd_recursion_collapsed;
      Alcotest.test_case "DD ordering across groups" `Quick test_dd_ordering;
      Alcotest.test_case "CD ordering within group" `Quick
        test_cd_ordering_within_group;
      Alcotest.test_case "split/merge balancing" `Quick test_split_merge;
      QCheck_alcotest.to_alcotest prop_flat_order_permutation;
      Alcotest.test_case "memo plan = prepare (all profiles)" `Quick
        test_memo_equals_prepare;
      Alcotest.test_case "memo keys: PAG and type_level" `Quick test_memo_keys;
      Alcotest.test_case "memo holds graphs weakly" `Quick test_memo_weak;
      Alcotest.test_case "golden groups (all profiles)" `Quick
        test_golden_groups;
    ] )
