(* The virtual-time jmp store driving the multicore simulator. *)
module Sim_store = Parcfl.Sim_store
module Hooks = Parcfl.Hooks
module Ctx = Parcfl.Ctx

let test_same_thread_visibility () =
  let st = Sim_store.create ~tau_f:1 ~tau_u:1 () in
  let q1 = Sim_store.begin_query st ~start:0 in
  q1.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 5 Ctx.empty ~cost:10
    ~targets:[||];
  (* Own buffered records are visible immediately. *)
  Alcotest.(check bool) "own record visible" true
    ((q1.Sim_store.hooks.Hooks.lookup Hooks.Bwd 5 Ctx.empty ~steps:0 ~worker:0)
       .Hooks.finished
    <> None);
  q1.Sim_store.publish ~avail:100;
  Alcotest.(check int) "published" 1 (Sim_store.n_finished st)

let test_cross_thread_timing () =
  let st = Sim_store.create ~tau_f:1 ~tau_u:1 () in
  let q1 = Sim_store.begin_query st ~start:0 in
  q1.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 5 Ctx.empty ~cost:10
    ~targets:[||];
  q1.Sim_store.publish ~avail:100;
  (* A query starting before the publish time must not see it... *)
  let q2 = Sim_store.begin_query st ~start:50 in
  Alcotest.(check bool) "invisible before avail" true
    ((q2.Sim_store.hooks.Hooks.lookup Hooks.Bwd 5 Ctx.empty ~steps:0 ~worker:0)
       .Hooks.finished
    = None);
  (* ...until its own progress carries it past the publish time. *)
  Alcotest.(check bool) "visible at start+steps >= avail" true
    ((q2.Sim_store.hooks.Hooks.lookup Hooks.Bwd 5 Ctx.empty ~steps:60 ~worker:0)
       .Hooks.finished
    <> None);
  (* A later query sees it from the start. *)
  let q3 = Sim_store.begin_query st ~start:150 in
  Alcotest.(check bool) "visible after avail" true
    ((q3.Sim_store.hooks.Hooks.lookup Hooks.Bwd 5 Ctx.empty ~steps:0 ~worker:0)
       .Hooks.finished
    <> None)

let test_thresholds_and_first_wins () =
  let st = Sim_store.create ~tau_f:100 ~tau_u:1000 () in
  let q = Sim_store.begin_query st ~start:0 in
  q.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 1 Ctx.empty ~cost:99
    ~targets:[||];
  q.Sim_store.hooks.Hooks.record_unfinished Hooks.Bwd 2 Ctx.empty ~s:999;
  q.Sim_store.publish ~avail:0;
  Alcotest.(check int) "tau_f filtered" 0 (Sim_store.n_finished st);
  Alcotest.(check int) "tau_u filtered" 0 (Sim_store.n_unfinished st);
  let qa = Sim_store.begin_query st ~start:0 in
  qa.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 1 Ctx.empty ~cost:100
    ~targets:[| (7, Ctx.empty) |];
  qa.Sim_store.publish ~avail:10;
  let qb = Sim_store.begin_query st ~start:0 in
  qb.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 1 Ctx.empty ~cost:500
    ~targets:[||];
  qb.Sim_store.publish ~avail:20;
  Alcotest.(check int) "one record" 1 (Sim_store.n_finished st);
  let q2 = Sim_store.begin_query st ~start:1000 in
  (match
     (q2.Sim_store.hooks.Hooks.lookup Hooks.Bwd 1 Ctx.empty ~steps:0 ~worker:0)
       .Hooks.finished
   with
  | Some { Hooks.cost = 100; _ } -> ()
  | _ -> Alcotest.fail "first publish must win")

let test_sync_cost_metering () =
  let st = Sim_store.create ~tau_f:1 ~tau_u:1 () in
  let q = Sim_store.begin_query st ~start:0 in
  Alcotest.(check int) "zero initially" 0 (q.Sim_store.sync_cost ());
  ignore (q.Sim_store.hooks.Hooks.lookup Hooks.Bwd 1 Ctx.empty ~steps:0 ~worker:0);
  Alcotest.(check int) "lookup metered" Sim_store.lookup_cost
    (q.Sim_store.sync_cost ());
  q.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 1 Ctx.empty ~cost:10
    ~targets:[||];
  let before = q.Sim_store.sync_cost () in
  q.Sim_store.publish ~avail:0;
  Alcotest.(check int) "insert metered" (before + Sim_store.insert_cost)
    (q.Sim_store.sync_cost ())

let test_direction_keys () =
  let st = Sim_store.create ~tau_f:1 ~tau_u:1 () in
  let q = Sim_store.begin_query st ~start:0 in
  q.Sim_store.hooks.Hooks.record_finished Hooks.Bwd 4 Ctx.empty ~cost:10
    ~targets:[||];
  q.Sim_store.publish ~avail:0;
  let q2 = Sim_store.begin_query st ~start:10 in
  Alcotest.(check bool) "Fwd key distinct" true
    ((q2.Sim_store.hooks.Hooks.lookup Hooks.Fwd 4 Ctx.empty ~steps:0 ~worker:0)
       .Hooks.finished
    = None)

let suite =
  ( "sim-store",
    [
      Alcotest.test_case "same-thread visibility" `Quick
        test_same_thread_visibility;
      Alcotest.test_case "cross-thread timing" `Quick test_cross_thread_timing;
      Alcotest.test_case "thresholds and first-wins" `Quick
        test_thresholds_and_first_wins;
      Alcotest.test_case "sync cost metering" `Quick test_sync_cost_metering;
      Alcotest.test_case "direction keys" `Quick test_direction_keys;
    ] )
