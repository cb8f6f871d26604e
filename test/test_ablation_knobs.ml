(* The ablation knobs: direction-restricted sharing and partial scheduling
   must preserve soundness and behave monotonically where guaranteed. *)
module Pag = Parcfl.Pag
module Mode = Parcfl.Mode
module Runner = Parcfl.Runner
module Report = Parcfl.Report
module Query = Parcfl.Query
module Config = Parcfl.Config
module Schedule = Parcfl.Schedule
module Jmp_store = Parcfl.Jmp_store
module Hooks = Parcfl.Hooks
module Ctx = Parcfl.Ctx

let bench = lazy (Parcfl.Suite.build Parcfl.Profile.tiny)

let run ?share_directions ?sched_order_within ?sched_order_across mode =
  let b = Lazy.force bench in
  Runner.run ~tau_f:5 ~tau_u:50 ?share_directions ?sched_order_within
    ?sched_order_across ~type_level:b.Parcfl.Suite.type_level
    ~solver_config:(Config.with_budget 2_000 Config.default)
    ~mode ~threads:1 ~queries:b.Parcfl.Suite.queries b.Parcfl.Suite.pag

let test_bwd_only_store () =
  let store = Jmp_store.create ~tau_f:1 ~tau_u:1 ~directions:`Bwd_only () in
  let h = Jmp_store.hooks store in
  h.Hooks.record_finished Hooks.Fwd 1 Ctx.empty ~cost:10 ~targets:[||];
  Alcotest.(check int) "Fwd record dropped" 0 (Jmp_store.n_finished store);
  h.Hooks.record_finished Hooks.Bwd 1 Ctx.empty ~cost:10 ~targets:[||];
  Alcotest.(check int) "Bwd record kept" 1 (Jmp_store.n_finished store);
  Alcotest.(check bool) "Fwd lookup blank" true
    ((h.Hooks.lookup Hooks.Fwd 1 Ctx.empty ~steps:0 ~worker:0).Hooks.finished = None)

let test_bwd_only_run_sound () =
  let b = Lazy.force bench in
  let full = run Mode.Share in
  let bwd = run ~share_directions:`Bwd_only Mode.Share in
  (* Same completed-query answers regardless of which directions share. *)
  let pts r =
    Hashtbl.fold
      (fun v res acc ->
        match res with
        | Query.Points_to _ -> (v, List.sort compare (Query.objects res)) :: acc
        | Query.Out_of_budget -> acc)
      (Report.results_by_var r)
      []
    |> List.sort compare
  in
  let pf = pts full and pb = pts bwd in
  List.iter
    (fun (v, objs) ->
      match List.assoc_opt v pb with
      | Some objs' when objs = objs' -> ()
      | Some _ -> Alcotest.failf "pts differ for var %d across directions" v
      | None -> () (* completed in full only *))
    pf;
  Alcotest.(check bool) "bwd-only records fewer jumps" true
    (Report.n_jumps bwd <= Report.n_jumps full);
  ignore b

let test_partial_scheduling_permutation () =
  let b = Lazy.force bench in
  List.iter
    (fun (w, a) ->
      let sched =
        Schedule.build ~order_within:w ~order_across:a
          ~pag:b.Parcfl.Suite.pag ~type_level:b.Parcfl.Suite.type_level
          b.Parcfl.Suite.queries
      in
      let flat = Array.to_list (Schedule.flat_order sched) in
      if
        List.sort compare flat
        <> List.sort compare (Array.to_list b.Parcfl.Suite.queries)
      then Alcotest.failf "not a permutation with within=%b across=%b" w a)
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_partial_scheduling_runs () =
  List.iter
    (fun (w, a) ->
      let r =
        run ~sched_order_within:w ~sched_order_across:a Mode.Share_sched
      in
      let b = Lazy.force bench in
      Alcotest.(check int) "all queries answered"
        (Array.length b.Parcfl.Suite.queries)
        (Array.length r.Report.r_queries))
    [ (true, false); (false, true); (false, false) ]

let suite =
  ( "ablation-knobs",
    [
      Alcotest.test_case "bwd-only store" `Quick test_bwd_only_store;
      Alcotest.test_case "bwd-only run sound" `Quick test_bwd_only_run_sound;
      Alcotest.test_case "partial scheduling permutes" `Quick
        test_partial_scheduling_permutation;
      Alcotest.test_case "partial scheduling runs" `Quick
        test_partial_scheduling_runs;
    ] )
