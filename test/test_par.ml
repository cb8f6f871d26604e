(* The execution modes: mode parsing, the real parallel runner (naive mode
   is deterministic per query, so parallel must equal sequential exactly),
   soundness of shared-mode results, and determinism of the simulator. *)
module Pag = Parcfl.Pag
module Mode = Parcfl.Mode
module Runner = Parcfl.Runner
module Report = Parcfl.Report
module Query = Parcfl.Query
module Config = Parcfl.Config

let bench = lazy (Parcfl.Suite.build Parcfl.Profile.tiny)

let config = Config.with_budget 2_000 Config.default

let run ?(mode = Mode.Seq) ?(threads = 1) ?(sim = false) () =
  let b = Lazy.force bench in
  if sim then
    Runner.simulate ~tau_f:5 ~tau_u:50 ~type_level:b.Parcfl.Suite.type_level
      ~solver_config:config ~mode ~threads ~queries:b.Parcfl.Suite.queries
      b.Parcfl.Suite.pag
  else
    Runner.run ~tau_f:5 ~tau_u:50 ~type_level:b.Parcfl.Suite.type_level
      ~solver_config:config ~mode ~threads ~queries:b.Parcfl.Suite.queries
      b.Parcfl.Suite.pag

let results_sorted report =
  let tbl = Report.results_by_var report in
  Hashtbl.fold
    (fun v r acc -> (v, List.sort compare (Query.objects r)) :: acc)
    tbl []
  |> List.sort compare

let test_mode_strings () =
  List.iter
    (fun m ->
      match Mode.of_string (Mode.to_string m) with
      | Ok m' when m = m' -> ()
      | _ -> Alcotest.failf "mode %s does not roundtrip" (Mode.to_string m))
    Mode.all;
  (match Mode.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus mode accepted");
  Alcotest.(check bool) "sharing flags" true
    (Mode.uses_sharing Mode.Share
    && Mode.uses_sharing Mode.Share_sched
    && (not (Mode.uses_sharing Mode.Naive))
    && not (Mode.uses_scheduling Mode.Share))

let test_report_shape () =
  let b = Lazy.force bench in
  let r = run () in
  Alcotest.(check int) "one outcome per query"
    (Array.length b.Parcfl.Suite.queries)
    (Array.length r.Report.r_queries);
  (* Outcome vars are exactly the queries (order preserved for seq). *)
  Alcotest.(check (list int)) "vars in issue order"
    (Array.to_list b.Parcfl.Suite.queries)
    (Array.to_list (Array.map (fun q -> q.Report.qs_var) r.Report.r_queries));
  Alcotest.(check bool) "walked counted" true (Report.total_walked r > 0);
  Alcotest.(check int) "no jumps without sharing" 0 (Report.n_jumps r)

let test_naive_parallel_equals_seq () =
  (* Without sharing each query is independent and deterministic, so any
     thread count must produce identical results. *)
  let seq = results_sorted (run ~mode:Mode.Seq ()) in
  List.iter
    (fun threads ->
      let par = results_sorted (run ~mode:Mode.Naive ~threads ()) in
      if par <> seq then
        Alcotest.failf "naive/%d differs from sequential" threads)
    [ 1; 2; 4 ]

let test_shared_parallel_sound () =
  (* With sharing, completed queries must stay within the context-
     insensitive over-approximation (Andersen). *)
  let b = Lazy.force bench in
  let andersen = Parcfl.Andersen.solve b.Parcfl.Suite.pag in
  List.iter
    (fun (mode, threads) ->
      let r = run ~mode ~threads () in
      Array.iter
        (fun (o : Query.outcome) ->
          match o.Query.result with
          | Query.Out_of_budget -> ()
          | Query.Points_to _ ->
              let objs = Query.objects o.Query.result in
              let ref_ =
                Parcfl.Andersen.points_to_list andersen o.Query.var
              in
              if not (List.for_all (fun x -> List.mem x ref_) objs) then
                Alcotest.failf "unsound result for var %d under %s/%d"
                  o.Query.var (Mode.to_string mode) threads)
        r.Report.r_outcomes)
    [ (Mode.Share, 2); (Mode.Share_sched, 2); (Mode.Share, 4) ]

let test_scheduled_covers_all_queries () =
  let b = Lazy.force bench in
  let r = run ~mode:Mode.Share_sched ~threads:2 () in
  let vars =
    List.sort compare
      (Array.to_list (Array.map (fun q -> q.Report.qs_var) r.Report.r_queries))
  in
  Alcotest.(check (list int)) "every query answered once"
    (List.sort compare (Array.to_list b.Parcfl.Suite.queries))
    vars;
  Alcotest.(check bool) "Sg recorded" true (r.Report.r_mean_group_size > 0.0)

let test_simulator_deterministic () =
  let r1 = run ~mode:Mode.Share_sched ~threads:4 ~sim:true () in
  let r2 = run ~mode:Mode.Share_sched ~threads:4 ~sim:true () in
  Alcotest.(check (option int)) "same makespan" r1.Report.r_sim_makespan
    r2.Report.r_sim_makespan;
  Alcotest.(check bool) "same outcomes" true
    (results_sorted r1 = results_sorted r2);
  Alcotest.(check bool) "makespan set" true (r1.Report.r_sim_makespan <> None)

let test_simulator_scales () =
  (* More virtual threads cannot increase the makespan... not strictly true
     with sharing (less sharing at higher parallelism), but it holds for
     the no-sharing naive mode up to rounding. *)
  let m t =
    Option.get (run ~mode:Mode.Naive ~threads:t ~sim:true ()).Report.r_sim_makespan
  in
  let m1 = m 1 and m4 = m 4 in
  Alcotest.(check bool) "naive sim speeds up" true (m4 < m1);
  Alcotest.(check bool) "at most linear" true (m4 * 4 >= m1)

let test_seq_forces_one_thread () =
  let r = run ~mode:Mode.Seq ~threads:8 () in
  Alcotest.(check int) "threads forced to 1" 1 r.Report.r_threads

let test_per_query_cost () =
  let r = run () in
  let costs = Runner.per_query_cost r in
  Alcotest.(check int) "one cost per query"
    (Array.length r.Report.r_queries)
    (Array.length costs);
  Array.iter
    (fun c -> if c < 1 then Alcotest.fail "cost must be >= 1")
    costs

let test_poisoned_query_raises () =
  (* A query the solver cannot even start (a var id far outside the PAG)
     must surface as an exception from the runner — never as a silently
     fabricated outcome in the report. *)
  let b = Lazy.force bench in
  let poisoned = Array.append b.Parcfl.Suite.queries [| 1_000_000 |] in
  let attempt sim =
    if sim then
      Runner.simulate ~type_level:b.Parcfl.Suite.type_level
        ~solver_config:config ~mode:Mode.Naive ~threads:2 ~queries:poisoned
        b.Parcfl.Suite.pag
    else
      Runner.run ~type_level:b.Parcfl.Suite.type_level
        ~solver_config:config ~mode:Mode.Naive ~threads:2 ~queries:poisoned
        b.Parcfl.Suite.pag
  in
  List.iter
    (fun sim ->
      let raised = try ignore (attempt sim); false with _ -> true in
      Alcotest.(check bool)
        (if sim then "simulate raises" else "run raises")
        true raised)
    [ false; true ]

let test_latency_recorded () =
  let r = run ~mode:Mode.Share_sched ~threads:2 () in
  Array.iter
    (fun q ->
      if q.Report.qs_latency_us < 0.0 then
        Alcotest.fail "negative latency")
    r.Report.r_queries;
  Alcotest.(check bool) "some query took measurable time" true
    (Array.exists (fun q -> q.Report.qs_latency_us > 0.0) r.Report.r_queries);
  (* Simulated latency counts virtual steps: at least 1 per query. *)
  let rs = run ~mode:Mode.Share_sched ~threads:4 ~sim:true () in
  Array.iter
    (fun q ->
      if q.Report.qs_latency_us < 1.0 then
        Alcotest.fail "virtual latency below one step")
    rs.Report.r_queries

(* Steps walked reach the shared counter once per query, at its end, on
   both the answered and the out-of-budget exit: the run's total must equal
   the per-query sum exactly, in every mode, CI and CS, with early
   terminations and budget exhaustion in the mix. *)
let test_steps_walked_sum () =
  let b = Option.get (Parcfl.Suite.build_by_name "h2") in
  let budget = Parcfl.Profile.default_budget in
  List.iter
    (fun (label, cs) ->
      let solver_config =
        { (Config.with_budget budget Config.default) with
          Config.context_sensitive = cs }
      in
      List.iter
        (fun (mode, threads) ->
          let r =
            Runner.run ~tau_f:Parcfl.Profile.default_tau_f
              ~tau_u:Parcfl.Profile.default_tau_u
              ~type_level:b.Parcfl.Suite.type_level ~solver_config ~mode
              ~threads ~queries:b.Parcfl.Suite.queries b.Parcfl.Suite.pag
          in
          let name = Printf.sprintf "%s %s" label (Mode.to_string mode) in
          let sum =
            Array.fold_left
              (fun acc q -> acc + q.Report.qs_steps_walked)
              0 r.Report.r_queries
          in
          Alcotest.(check int) (name ^ " walked = sum") sum
            r.Report.r_stats.Parcfl.Stats.s_steps_walked;
          Alcotest.(check bool) (name ^ " has out-of-budget queries") true
            (Report.n_completed r < Array.length r.Report.r_queries);
          if cs && Mode.uses_sharing mode then
            Alcotest.(check bool) (name ^ " has early terminations") true
              (Report.n_early_terminations r > 0))
        [ (Mode.Seq, 1); (Mode.Share, 2); (Mode.Share_sched, 2) ])
    [ ("CS", true); ("CI", false) ]

(* [Solver.explain] runs its own traced solve outside any query; its steps
   still reach the session's counter, answered or out of budget. *)
let test_explain_charges_steps () =
  let b = Lazy.force bench in
  let pag = b.Parcfl.Suite.pag in
  let v = b.Parcfl.Suite.queries.(0) in
  let walked config =
    let s =
      Parcfl.Solver.make_session ~config
        ~ctx_store:(Parcfl.Ctx.create_store ()) pag
    in
    ignore (Parcfl.Solver.explain s v 0);
    (Parcfl.Stats.snapshot (Parcfl.Solver.stats s)).Parcfl.Stats.s_steps_walked
  in
  Alcotest.(check bool) "answered explain counted" true (walked config > 0);
  Alcotest.(check int) "out-of-budget explain counted" 2
    (walked (Config.with_budget 1 Config.default))

(* Golden 1-thread DQ counters (completed, walked, finished+unfinished
   jumps, ETs) at the command line's defaults. A change that alters the
   steps the solver walks or the jmp records it keeps shows up here. *)
let test_dq_golden_counters () =
  List.iter
    (fun (name, want) ->
      let b = Option.get (Parcfl.Suite.build_by_name name) in
      let r =
        Runner.run ~tau_f:Parcfl.Profile.default_tau_f
          ~tau_u:Parcfl.Profile.default_tau_u
          ~type_level:b.Parcfl.Suite.type_level
          ~solver_config:
            (Config.with_budget Parcfl.Profile.default_budget Config.default)
          ~mode:Mode.Share_sched ~threads:1 ~queries:b.Parcfl.Suite.queries
          b.Parcfl.Suite.pag
      in
      Alcotest.(check (list int)) (name ^ " DQ counters") want
        [
          Report.n_completed r;
          Report.total_walked r;
          r.Report.r_n_jumps_finished;
          r.Report.r_n_jumps_unfinished;
          Report.n_early_terminations r;
        ])
    [ ("_200_check", [ 154; 1170; 1; 0; 0 ]); ("h2", [ 889; 180539; 481; 346; 797 ]) ]

(* Two domains running DQ batches at once share the plan memo and the idle
   domain pool: at 1 thread each run's outcomes (answers and counters)
   equal a sequential run's exactly; at 2 threads every query completed in
   both runs has the same answer. *)
let test_concurrent_runners () =
  let names = [ "_200_check"; "h2" ] in
  let benches =
    List.map (fun n -> Option.get (Parcfl.Suite.build_by_name n)) names
  in
  let dq threads (b : Parcfl.Suite.t) =
    Runner.run ~tau_f:Parcfl.Profile.default_tau_f
      ~tau_u:Parcfl.Profile.default_tau_u ~type_level:b.Parcfl.Suite.type_level
      ~solver_config:
        (Config.with_budget Parcfl.Profile.default_budget Config.default)
      ~mode:Mode.Share_sched ~threads ~queries:b.Parcfl.Suite.queries
      b.Parcfl.Suite.pag
  in
  let sequential = List.map (dq 1) benches in
  let concurrently threads =
    List.map Domain.join
      (List.map (fun b -> Domain.spawn (fun () -> dq threads b)) benches)
  in
  List.iter2
    (fun name (want, got) ->
      Alcotest.(check bool) (name ^ " 1-thread outcomes") true
        (want.Report.r_outcomes = got.Report.r_outcomes))
    names
    (List.combine sequential (concurrently 1));
  List.iter2
    (fun name (want, got) ->
      let answers r =
        Array.fold_left
          (fun acc (o : Query.outcome) ->
            if Query.completed o then
              (o.Query.var, List.sort compare (Query.objects o.Query.result))
              :: acc
            else acc)
          [] r.Report.r_outcomes
      in
      let want = answers want in
      List.iter
        (fun (v, objs) ->
          match List.assoc_opt v want with
          | Some w when w <> objs ->
              Alcotest.failf "%s: var %d answered differently" name v
          | _ -> ())
        (answers got))
    names
    (List.combine sequential (concurrently 2))

let suite =
  ( "par",
    [
      Alcotest.test_case "mode strings" `Quick test_mode_strings;
      Alcotest.test_case "report shape" `Quick test_report_shape;
      Alcotest.test_case "naive parallel = sequential" `Quick
        test_naive_parallel_equals_seq;
      Alcotest.test_case "shared parallel sound" `Quick
        test_shared_parallel_sound;
      Alcotest.test_case "scheduling covers all queries" `Quick
        test_scheduled_covers_all_queries;
      Alcotest.test_case "simulator deterministic" `Quick
        test_simulator_deterministic;
      Alcotest.test_case "simulator scales (naive)" `Quick test_simulator_scales;
      Alcotest.test_case "seq forces one thread" `Quick
        test_seq_forces_one_thread;
      Alcotest.test_case "per-query cost" `Quick test_per_query_cost;
      Alcotest.test_case "poisoned query raises" `Quick
        test_poisoned_query_raises;
      Alcotest.test_case "latency recorded" `Quick test_latency_recorded;
      Alcotest.test_case "steps walked = per-query sum" `Quick
        test_steps_walked_sum;
      Alcotest.test_case "explain charges its steps" `Quick
        test_explain_charges_steps;
      Alcotest.test_case "DQ golden counters" `Quick test_dq_golden_counters;
      Alcotest.test_case "concurrent DQ runners" `Quick test_concurrent_runners;
    ] )
