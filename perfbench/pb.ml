(* perfbench — the repository benchmark.

   pb --workload NAME --seed N --seconds S --trace 0|1

   Workloads (README.md says why each exists):
   - batch-dq      in-process Runner.run, mode DQ, 2 threads, six profiles
   - sweep-cs      fresh `serve -b tomcat -t 2` per sweep, every tomcat
                   application local once, Poisson open loop
   - hot-ci-mixed  `serve -b tomcat -t 2 --insensitive --oracle`, skewed
                   plain/refined/explain mix plus a metrics scrape

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics of a separate traced
   run, which also sends a sweep through `cluster -r 2 -t 1`. Every answer
   is checked against an independent reference (Check) and a wrong answer
   makes the run exit 1. *)

module P = Parcfl
module Proto = P.Svc_protocol
open Util

let exe = "_build/default/bin/parcfl_cli.exe"
let out_dir = "perfbench/_out"
let threads = 2
let batch_profiles = [ "batik"; "fop"; "h2"; "pmd"; "tomcat"; "xalan" ]

let build name =
  match P.Suite.build_by_name name with
  | Some b -> b
  | None -> failwith ("unknown profile " ^ name)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Every metric the run reports, by name, with its unit. *)
let metrics : (string, float * string) Hashtbl.t = Hashtbl.create 128
let set name unit v = Hashtbl.replace metrics name (v, unit)

(* ------------------------------------------------------------------ *)
(* Wire passes: one open-loop schedule against a server, every reply
   classified and checked. *)

type kind = Plain | Refined | Explain | Scrape

let kind_ix = function Plain -> 0 | Refined -> 1 | Explain -> 2 | Scrape -> 3

type req = { kind : kind; line : string; var : int }

type tally = {
  lat : Sample.t array;  (* per kind, ms from the due time *)
  wire_us : Sample.t;  (* client latency from send minus server latency_us *)
  stages : Sample.t array;  (* queue, batch, solve, respond (us) *)
  late_us : Sample.t;
  win_p50 : Calm.t;  (* plain p50 / p99 of each window (one wire pass) *)
  win_p99 : Calm.t;
  mutable sent : int;
  mutable queries : int;  (* plain + refined sent *)
  mutable answered : int;  (* replies carrying a points-to set *)
  mutable errors : int;  (* error replies, rejections, lost, desynced, dead *)
  mutable wrong : int;
  mutable explains : int;
  mutable found : int;
  mutable parts_bad : int;
  mutable cached : int;
  mutable sent_rate : float;  (* requests/s actually sent by the last pass *)
  answers : (int, string list) Hashtbl.t;  (* var -> objects, for explain pairs *)
}

let tally () =
  {
    lat = Array.init 4 (fun _ -> Sample.create ());
    wire_us = Sample.create ();
    stages = Array.init 4 (fun _ -> Sample.create ());
    late_us = Sample.create ();
    win_p50 = Calm.create ();
    win_p99 = Calm.create ();
    sent = 0; queries = 0; answered = 0; errors = 0; wrong = 0; explains = 0;
    found = 0; parts_bad = 0; cached = 0; sent_rate = 0.0;
    answers = Hashtbl.create 4096;
  }

let stage_values (b : P.Svc_span.breakdown) =
  [| b.bd_queue_wait_us; b.bd_batch_wait_us; b.bd_solve_us; b.bd_respond_us |]

let wire_pass ~socket ~(refs : Check.ref_) ~(reqs : req array) ~(due : float array)
    (t : tally) =
  let n = Array.length reqs in
  let server_us = Array.make n Float.nan in
  let server_parts = Array.make n [||] in
  let window = Sample.create () in
  let on_reply i recv line =
    if i < 0 then t.errors <- t.errors + 1
    else begin
      let r = reqs.(i) in
      let lat = (recv -. due.(i)) /. 1e6 in
      let timed latency_us breakdown =
        Sample.add t.lat.(kind_ix r.kind) lat;
        if r.kind = Plain then Sample.add window lat;
        server_us.(i) <- latency_us;
        let parts = stage_values breakdown in
        server_parts.(i) <- parts;
        Array.iteri (fun k v -> Sample.add t.stages.(k) v) parts;
        let total = Array.fold_left ( +. ) 0.0 parts in
        if Float.abs (total -. latency_us) > (0.05 *. latency_us) +. 1.0 then
          t.parts_bad <- t.parts_bad + 1
      in
      match Proto.response_of_string line with
      | Ok (Proto.Answer { objects; cached; latency_us; breakdown; _ })
        when r.kind = Plain || r.kind = Refined ->
          timed latency_us breakdown;
          t.answered <- t.answered + 1;
          if cached then t.cached <- t.cached + 1;
          if Check.answer_ok refs r.var objects then Hashtbl.replace t.answers r.var objects
          else t.wrong <- t.wrong + 1
      | Ok (Proto.Timeout { latency_us; breakdown; _ }) -> timed latency_us breakdown
      | Ok (Proto.Explain_reply { var; obj; found; chain; _ }) when r.kind = Explain ->
          Sample.add t.lat.(2) lat;
          t.explains <- t.explains + 1;
          if found then begin
            t.found <- t.found + 1;
            if not (Check.chain_ok refs.Check.pag ~var ~obj chain) then t.wrong <- t.wrong + 1
          end
      | Ok (Proto.Metrics_reply _) when r.kind = Scrape -> Sample.add t.lat.(3) lat
      | _ -> t.errors <- t.errors + 1
    end
  in
  (* Replies are only stamped and stored inside the send loop; parsing
     and checking wait until the window ends, so they cannot delay sends
     or reads. *)
  let replies = ref [] in
  let o, steal =
    with_steal (fun () ->
        Wire.run ~socket ~conns:threads ~due_ns:due
          ~lines:(Array.map (fun r -> r.line) reqs)
          ~drain_s:10.0
          ~on_reply:(fun i recv line -> replies := (i, recv, line) :: !replies))
  in
  List.iter (fun (i, recv, line) -> on_reply i recv line) (List.rev !replies);
  t.sent <- t.sent + n;
  if n > 1 then
    t.sent_rate <-
      float_of_int (n - 1) /. ((o.Wire.sent_ns.(n - 1) -. o.Wire.sent_ns.(0)) /. 1e9);
  if Sample.length window >= 100 then begin
    Calm.add t.win_p50 ~steal (Sample.q window 0.5);
    Calm.add t.win_p99 ~steal (Sample.q window 0.99)
  end;
  Array.iter
    (fun r -> if r.kind = Plain || r.kind = Refined then t.queries <- t.queries + 1)
    reqs;
  t.errors <- t.errors + o.Wire.lost + o.Wire.dead_conns;
  Array.iter (Sample.add t.late_us) o.Wire.late_us;
  Array.iteri
    (fun i s ->
      if not (Float.is_nan s) then begin
        let client_us = (o.Wire.recv_ns.(i) -. o.Wire.sent_ns.(i)) /. 1e3 in
        Sample.add t.wire_us (client_us -. s);
        (* The request's spans: the client's send->reply, and inside it the
           server's four stages, placed as if the wire time split evenly
           either side of the server's latency. *)
        Trace.record ~req:i "wire.request" ~start_ns:o.Wire.sent_ns.(i) ~end_ns:o.Wire.recv_ns.(i);
        let at = ref (o.Wire.sent_ns.(i) +. ((client_us -. s) *. 1e3 /. 2.0)) in
        Array.iteri
          (fun k d ->
            let name = [| "svc.queue"; "svc.batch"; "svc.solve"; "svc.respond" |].(k) in
            Trace.record ~req:i ~parent:i name ~start_ns:!at ~end_ns:(!at +. (d *. 1e3));
            at := !at +. (d *. 1e3))
          server_parts.(i)
      end)
    server_us

(* ------------------------------------------------------------------ *)
(* Server specs *)

type spec = {
  wname : string;
  args : string -> string list;  (* socket -> argv tail *)
  ready : string -> bool;
  nominal : float;  (* requests/s *)
  step : float;  (* ladder rung k is nominal * step^k, lowest <= k <= highest *)
  lowest : int;
  highest : int;
  first : int;  (* where the first climb starts when the nominal rate passed *)
  limit_ms : float;  (* p99 limit for max_qps *)
}

let sweep_cs =
  {
    wname = "sweep-cs";
    args = (fun s -> [ "serve"; "-b"; "tomcat"; "-t"; "2"; "--socket"; s ]);
    ready = Wire.ping_ready;
    nominal = 4000.0;
    step = 1.08;
    lowest = -12;
    highest = 30;
    first = 8;
    limit_ms = 50.0;
  }

let cluster2_cs =
  {
    sweep_cs with
    wname = "cluster2-cs";
    args =
      (fun s -> [ "cluster"; "-b"; "tomcat"; "-r"; "2"; "-t"; "1"; "--socket"; s ]);
    ready = Wire.health_ready;
  }

let hot_ci_mixed =
  {
    wname = "hot-ci-mixed";
    args =
      (fun s ->
        [ "serve"; "-b"; "tomcat"; "-t"; "2"; "--insensitive"; "--oracle"; "--socket"; s ]);
    ready = Wire.ping_ready;
    nominal = 2500.0;
    step = 1.1;
    lowest = -12;
    highest = 24;
    first = 8;
    limit_ms = 10.0;
  }

let socket_of spec = Printf.sprintf "%s/%s.sock" out_dir spec.wname
let log_of spec = Printf.sprintf "%s/%s.log" out_dir spec.wname

(* [setup] collects the spawn-to-ready time with its steal rate. *)
let with_server ?setup spec f =
  let sock = socket_of spec in
  let (s, secs), steal =
    with_steal (fun () ->
        Wire.spawn ~exe ~args:(spec.args sock) ~socket:sock ~log:(log_of spec) ~ready:spec.ready)
  in
  Option.iter (fun c -> Calm.add c ~steal secs) setup;
  Fun.protect ~finally:(fun () -> Wire.stop s) (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Request streams *)

let query_line i v = Printf.sprintf "query %d #%d" i v

(* The sweep: every application local once, shuffled, Poisson arrivals. *)
let sweep_stream rng (b : P.Suite.t) ~rate ~n =
  let order = Array.sub (shuffle rng b.P.Suite.queries) 0 n in
  let reqs = Array.mapi (fun i v -> { kind = Plain; line = query_line i v; var = v }) order in
  (reqs, Wire.poisson rng ~rate n)

(* The mixed stream: ~90% plain, ~8% budget-refined, ~2% explain on pairs
   drawn from [answers] (this server's own earlier answers, unfiltered),
   variables drawn from the skewed [mix], plus one metrics scrape per
   second of schedule: [clock] counts the schedule seconds this server
   has already been sent, so windows shorter than a second share one. *)
let mixed_stream ?(shares = (0.90, 0.98)) rng ~mix ~mix_pos ~answers ~clock ~rate ~seconds =
  let plain, refined = shares in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let due = Wire.poisson rng ~rate n in
  let start = !clock in
  clock := start +. seconds;
  let scrapes =
    List.init
      (int_of_float (Float.floor (start +. seconds)) - int_of_float (Float.floor start))
      (fun k -> ((Float.floor start +. float_of_int (k + 1) -. start) *. 1e9, Scrape))
  in
  let pool =
    Array.of_seq (Seq.filter (fun (_, objs) -> objs <> []) (Hashtbl.to_seq answers))
  in
  Array.sort compare pool;
  let next_var () =
    let v = mix.(!mix_pos mod Array.length mix) in
    incr mix_pos;
    v
  in
  let items =
    List.init n (fun i ->
        let u = Random.State.float rng 1.0 in
        let kind =
          if u < plain || Array.length pool = 0 then Plain
          else if u < refined then Refined
          else Explain
        in
        (due.(i), kind))
    @ scrapes
  in
  let items = List.sort (fun (a, _) (b, _) -> compare a b) items |> Array.of_list in
  let reqs =
    Array.mapi
      (fun i (_, kind) ->
        match kind with
        | Plain ->
            let v = next_var () in
            { kind; line = query_line i v; var = v }
        | Refined ->
            let v = next_var () in
            {
              kind;
              line = Printf.sprintf "query %d #%d budget=%d" i v (P.Profile.default_budget / 2);
              var = v;
            }
        | Explain ->
            let v, objs = pool.(Random.State.int rng (Array.length pool)) in
            let objs = Array.of_list objs in
            let o = objs.(Random.State.int rng (Array.length objs)) in
            { kind; line = Printf.sprintf "explain %d #%d %s" i v o; var = v }
        | Scrape -> { kind; line = Printf.sprintf "metrics %d" i; var = -1 })
      items
  in
  (reqs, Array.map fst items)

(* ------------------------------------------------------------------ *)
(* max_qps: the highest rung of a fixed ladder (nominal * step^k) at
   which the plain p99 stays under the limit, with no error, no lost reply
   and no wrong answer; a growing backlog shows as a p99 timed from the
   due time. A rung is one window. A climb tests its start rung: if it
   passes, the climb goes up until two rungs in a row fail (one noisy rung
   does not end it) and returns the highest rung that passed; if it fails,
   the climb goes down to the first rung that passes. The first climb
   starts at rung [first] when the nominal phase passed and just below
   the nominal rate when it did not; each later one starts two rungs
   below the median so far. The run reports the mean of the middle three
   of five climbs, so one disturbed climb does not move it, and a host
   slowed by other load still finds its lower rate instead of reading 0.
   A climb's figure is the rate the generator actually sent in its best
   rung, not the rung's nominal value. *)

let rung_ok spec (t : tally) =
  Calm.median t.win_p99 < spec.limit_ms && t.errors = 0 && t.wrong = 0

let climbs = 5

(* A rung that fails while the host steals more than [Calm.quiet] is run
   again, at most twice. *)
let max_qps spec ~nominal_ok ~rung =
  let rate k = spec.nominal *. (spec.step ** float_of_int k) in
  (* [Some sent_rate] when rung [k] passes *)
  let rec test ?(tries = 3) k =
    let t = rung (rate k) in
    let steal = Calm.steal_median t.win_p99 in
    info "%s rung %.0f/s: p99 %s ms, errors %d, steal %.1f/s" spec.wname (rate k)
      (String.concat " "
         (List.map (Printf.sprintf "%.1f") (Array.to_list (Calm.values t.win_p99))))
      t.errors steal;
    if rung_ok spec t then Some t.sent_rate
    else if tries > 1 && steal > Calm.quiet then test ~tries:(tries - 1) k
    else None
  in
  let climb start =
    let start = max spec.lowest (min spec.highest start) in
    match test start with
    | Some r ->
        let best = ref (start, r) and fails = ref 0 and k = ref (start + 1) in
        while !fails < 2 && !k <= spec.highest do
          (match test !k with
          | Some r ->
              best := (!k, r);
              fails := 0
          | None -> incr fails);
          incr k
        done;
        !best
    | None ->
        let rec down k =
          if k < spec.lowest then (k, 0.0)
          else match test k with Some r -> (k, r) | None -> down (k - 1)
        in
        down (start - 1)
  in
  let middle l = List.nth (List.sort compare l) ((List.length l - 1) / 2) in
  let results = ref [] in
  for _ = 1 to climbs do
    let start =
      match !results with [] -> if nominal_ok then spec.first else -1 | l -> fst (middle l) - 2
    in
    results := climb start :: !results
  done;
  (* The mean of the middle three climbs: as robust as their median, and
     the ladder's step does not show in the figure. *)
  let rates = List.sort compare (List.map snd !results) in
  mean (Array.of_list (List.filteri (fun i _ -> i >= 1 && i < climbs - 1) rates))

(* ------------------------------------------------------------------ *)
(* End-to-end figures shared by the serve workloads *)

let serve_e2e ~setup ~rss (t : tally) ~max_qps =
  set "setup_s" "s" (Calm.median setup);
  set "peak_rss_mb" "MiB" rss;
  set "p50_ms" "ms" (Calm.median t.win_p50);
  set "p99_ms" "ms" (Calm.median t.win_p99);
  set "max_qps" "1/s" max_qps;
  set "answered_share" "ratio" (ratio t.answered t.queries)

let report_tally name (t : tally) =
  info "%s: sent %d, plain samples %d, answered %d, errors %d, wrong %d, explains %d (found %d), parts-sum violations %d"
    name t.sent (Sample.length t.lat.(0)) t.answered t.errors t.wrong t.explains t.found
    t.parts_bad;
  let show a = String.concat " " (List.map (Printf.sprintf "%.1f") (Array.to_list a)) in
  info "%s: window p50s %s; window p99s %s; steal/s %s" name
    (show (Calm.values t.win_p50)) (show (Calm.values t.win_p99))
    (show (Sample.to_array t.win_p99.Calm.steal))

(* ------------------------------------------------------------------ *)
(* Workloads *)

type outcome = { correct : bool; attempted : int; failed : int }

let deadline_of seconds = now_ns () +. (seconds *. 1e9)

(* Layer counters read from DQ reports (cfl, sharing, par, sched). *)
type dq_acc = {
  mutable walked : int;
  mutable jumped : int;
  mutable ets : int;
  mutable minor : int;
  mutable nq : int;
  mutable wall_ns : float;
  mutable busy : float;  (* sum over workers, us *)
  mutable busy_max : float;
  mutable hits : int;
  mutable misses : int;
  mutable groups : float list;
  solve_us : Sample.t;
  mutable passes : int;
}

let dq_acc () =
  { walked = 0; jumped = 0; ets = 0; minor = 0; nq = 0; wall_ns = 0.0; busy = 0.0;
    busy_max = 0.0; hits = 0; misses = 0; groups = []; solve_us = Sample.create (); passes = 0 }

(* One DQ run of [queries] on a fresh jmp store, folded into [acc]. *)
let dq_pass acc (b : P.Suite.t) ~cs ~req queries =
  let store = P.Jmp_store.create ~tau_f:P.Profile.default_tau_f ~tau_u:P.Profile.default_tau_u () in
  let ctx_store = P.Ctx.create_store () in
  let start_us = Unix.gettimeofday () *. 1e6 in
  let rep, ns =
    time_ns (fun () ->
        Trace.span ~req "par.run" (fun () ->
            P.Runner.run ~tau_f:P.Profile.default_tau_f ~tau_u:P.Profile.default_tau_u ~store
              ~ctx_store ~type_level:b.P.Suite.type_level
              ~solver_config:(Check.solver_config ~cs) ~mode:P.Mode.Share_sched ~threads
              ~queries b.P.Suite.pag))
  in
  let s = rep.P.Report.r_stats in
  acc.walked <- acc.walked + s.P.Stats.s_steps_walked;
  acc.jumped <- acc.jumped + s.P.Stats.s_steps_jumped;
  acc.ets <- acc.ets + P.Report.n_early_terminations rep;
  acc.minor <- acc.minor + P.Report.total_minor_words rep;
  acc.nq <- acc.nq + Array.length queries;
  acc.wall_ns <- acc.wall_ns +. ns;
  let busy = rep.P.Report.r_worker_busy_us in
  acc.busy <- acc.busy +. Array.fold_left ( +. ) 0.0 busy;
  acc.busy_max <- acc.busy_max +. Array.fold_left Float.max 0.0 busy;
  acc.hits <- acc.hits + P.Jmp_store.n_hits store;
  acc.misses <- acc.misses + P.Jmp_store.n_misses store;
  acc.groups <- rep.P.Report.r_mean_group_size :: acc.groups;
  acc.passes <- acc.passes + 1;
  (* Only the traced run reads these; kept in every pass, they would grow
     pb's heap with the pass count and so move batch-dq's peak_rss_mb. *)
  if !Trace.enabled then
    Array.iter (fun q -> Sample.add acc.solve_us q.P.Report.qs_latency_us) rep.P.Report.r_queries;
  (rep, ns, start_us)

let dq_layers acc =
  set "sched.mean_group_size" "count" (mean (Array.of_list acc.groups));
  set "cfl.steps_walked" "count" (float_of_int acc.walked /. float_of_int (max 1 acc.passes));
  set "cfl.steps_per_s" "1/s" (float_of_int acc.walked /. (acc.wall_ns /. 1e9));
  set "cfl.minor_words_per_query" "count" (ratio acc.minor acc.nq);
  set "cfl.solve_us.p99" "us" (Sample.q acc.solve_us 0.99);
  set "sharing.ratio_saved" "ratio"
    (if acc.walked + acc.jumped = 0 then 0.0
     else float_of_int acc.jumped /. float_of_int (acc.walked + acc.jumped));
  set "sharing.early_terminations" "count" (float_of_int acc.ets /. float_of_int (max 1 acc.passes));
  set "sharing.jmp_hit_ratio" "ratio" (ratio acc.hits (acc.hits + acc.misses));
  set "par.run_ms" "ms" (acc.wall_ns /. 1e6 /. float_of_int (max 1 acc.passes));
  set "par.busy_share" "ratio" (acc.busy /. (float_of_int threads *. acc.wall_ns /. 1e3));
  set "par.imbalance" "ratio"
    (if acc.busy = 0.0 then 0.0 else acc.busy_max /. (acc.busy /. float_of_int threads))

(* ------------------------------------------------------------------ *)
(* Layer probes for the traced run: each times calls into one layer's
   public functions on the workload's own inputs. *)

let loc_counts libraries =
  List.iter
    (fun lib ->
      let dir = Filename.concat "lib" lib in
      let lines f =
        List.length
          (String.split_on_char '\n'
             (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
        - 1
      in
      let n =
        if not (Sys.file_exists dir && Sys.is_directory dir) then 0
        else
          Array.fold_left
            (fun acc f ->
              if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then acc + lines f
              else acc)
            0 (Sys.readdir dir)
      in
      set ("loc." ^ lib) "lines" (float_of_int n))
    libraries

(* Nanoseconds per call of [f i] for i over [0, n), repeated until at
   least 50 ms have passed; 0 when there is nothing to call. *)
let ns_per_call n f =
  let calls = ref 0 and total = ref 0.0 in
  while n > 0 && !total < 50e6 do
    let (), ns = time_ns (fun () -> for i = 0 to n - 1 do f i done) in
    total := !total +. ns;
    calls := !calls + n
  done;
  if !calls = 0 then 0.0 else !total /. float_of_int !calls

let build_layers (suites : P.Suite.t list) ~names =
  let builds =
    Array.init 3 (fun _ ->
        snd (time_ns (fun () -> Trace.span "workload.build" (fun () -> List.map build names))))
  in
  set "workload.build_ms" "ms" (median builds /. 1e6);
  set "pag.edges" "count"
    (float_of_int (List.fold_left (fun a b -> a + P.Pag.n_edges b.P.Suite.pag) 0 suites));
  let ob = ref 0.0 and bytes = ref 0 and rows = ref 0 and look = ref [] in
  List.iter
    (fun (b : P.Suite.t) ->
      let pag = b.P.Suite.pag in
      let o, ns =
        time_ns (fun () ->
            Trace.span "oracle.build" (fun () -> P.Oracle.build ~threads ~generation:0 pag))
      in
      ob := !ob +. ns;
      bytes := !bytes + P.Oracle.compressed_bytes o;
      rows := !rows + P.Oracle.distinct_rows o;
      let qs = b.P.Suite.queries in
      look :=
        ns_per_call (Array.length qs) (fun i -> ignore (P.Oracle.points_to_list o qs.(i)))
        :: !look)
    suites;
  set "oracle.build_ms" "ms" (!ob /. 1e6);
  set "oracle.bytes" "bytes" (float_of_int !bytes);
  set "oracle.rows" "count" (float_of_int !rows);
  set "oracle.lookup_ns" "ns" (mean (Array.of_list !look));
  let prep =
    List.fold_left
      (fun acc (b : P.Suite.t) ->
        acc
        +. snd
             (time_ns (fun () ->
                  Trace.span "sched.prepare" (fun () ->
                      P.Schedule.prepare ~pag:b.P.Suite.pag ~type_level:b.P.Suite.type_level))))
      0.0 suites
  in
  set "sched.prepare_ms" "ms" (prep /. 1e6)

(* The service layer in-process: the same arrival schedule replayed
   through Service.submit / Service.pump in real time. *)
let replay_layers (b : P.Suite.t) ~cs ~oracle (reqs : req array) (due : float array) =
  let config =
    {
      P.Service.default_config with
      P.Service.threads;
      context_sensitive = cs;
      oracle;
      max_budget = P.Profile.default_budget;
      tau_f = Some P.Profile.default_tau_f;
      tau_u = Some P.Profile.default_tau_u;
    }
  in
  let svc = P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag in
  Fun.protect ~finally:(fun () -> P.Service.shutdown svc) @@ fun () ->
  let stages = Array.init 4 (fun _ -> Sample.create ()) in
  let pump_ms = Sample.create () and batch = Sample.create () in
  let rendered = ref [] and n_rendered = ref 0 in
  let answers = Hashtbl.create 1024 in
  let respond r =
    if !n_rendered < 2000 then begin
      rendered := r :: !rendered;
      incr n_rendered
    end;
    match r with
    | Proto.Answer { breakdown; var; objects; _ } ->
        Array.iteri (fun k v -> Sample.add stages.(k) v) (stage_values breakdown);
        if objects <> [] then Hashtbl.replace answers var objects
    | Proto.Timeout { breakdown; _ } ->
        Array.iteri (fun k v -> Sample.add stages.(k) v) (stage_values breakdown)
    | _ -> ()
  in
  let n = Array.length reqs in
  let t0 = now_ns () in
  let i = ref 0 in
  let pump ~force =
    let wall = Unix.gettimeofday () in
    if force || P.Service.due svc ~now:wall then begin
      let start_ns = now_ns () in
      let k = P.Service.pump ~force svc ~now:wall in
      let end_ns = now_ns () in
      Trace.record "svc.pump" ~start_ns ~end_ns;
      if k > 0 then begin
        Sample.add pump_ms ((end_ns -. start_ns) /. 1e6);
        Sample.add batch (float_of_int k)
      end
    end
  in
  while !i < n || P.Service.queue_depth svc > 0 do
    let now = now_ns () -. t0 in
    while !i < n && due.(!i) <= now do
      (match Proto.parse_request reqs.(!i).line with
      | Ok req ->
          Trace.span ~req:!i "svc.submit" (fun () ->
              P.Service.submit svc ~now:(Unix.gettimeofday ()) ~respond req)
      | Error _ -> ());
      incr i
    done;
    pump ~force:(!i >= n);
    if !i < n then begin
      let gap = (due.(!i) -. (now_ns () -. t0)) /. 1e9 in
      let hint =
        Option.value ~default:gap (P.Service.wait_hint svc ~now:(Unix.gettimeofday ()))
      in
      let s = Float.min gap hint in
      if s > 0.0 then Unix.sleepf (Float.min s 0.001)
    end
  done;
  let m = P.Service.metrics svc in
  let get c = P.Svc_metrics.get m c in
  set "svc.queue_wait_us.p99" "us" (Sample.q stages.(0) 0.99);
  set "svc.batch_wait_us.p99" "us" (Sample.q stages.(1) 0.99);
  set "svc.solve_us.p99" "us" (Sample.q stages.(2) 0.99);
  set "svc.respond_us.p99" "us" (Sample.q stages.(3) 0.99);
  set "svc.pump_ms.p99" "ms" (Sample.q pump_ms 0.99);
  set "svc.batch_size.mean" "count" (mean (Sample.to_array batch));
  set "svc.batch_size.p99" "count" (Sample.q batch 0.99);
  let queries = Array.fold_left (fun a r -> if r.kind = Plain || r.kind = Refined then a + 1 else a) 0 reqs in
  set "oracle.hit_share" "ratio" (ratio (get P.Svc_metrics.Oracle_hit) queries);
  set "svc.cache_hit_ratio" "ratio"
    (ratio (get P.Svc_metrics.Cache_hit) (get P.Svc_metrics.Cache_hit + get P.Svc_metrics.Cache_miss));
  let lines = Array.map (fun r -> r.line) reqs in
  set "svc.parse_ns" "ns"
    (ns_per_call (Array.length lines) (fun i -> ignore (Proto.parse_request lines.(i))));
  let rendered = Array.of_list !rendered in
  set "svc.render_ns" "ns"
    (ns_per_call (Array.length rendered) (fun i -> ignore (Proto.response_to_string rendered.(i))));
  let renders =
    Array.init 10 (fun _ ->
        snd (time_ns (fun () -> Trace.span "telemetry.render" (fun () -> P.Service.metrics_text svc))))
  in
  set "telemetry.render_ms" "ms" (median renders /. 1e6);
  (* Provenance: explain pairs from this replay's own answers, through
     the service (index) and straight through Solver.explain. *)
  let pairs =
    Hashtbl.fold (fun v objs acc -> List.map (fun o -> (v, o)) objs @ acc) answers []
    |> Array.of_list
  in
  Array.sort compare pairs;
  let rng = Random.State.make [| Array.length pairs; 5 |] in
  let pick = Array.init (min 30 (Array.length pairs)) (fun _ -> pairs.(Random.State.int rng (Array.length pairs))) in
  let pag = b.P.Suite.pag in
  let resolve name = Result.get_ok (P.Service.resolve svc name) in
  let resolve_obj name = Result.get_ok (P.Service.resolve_obj svc name) in
  Array.iteri
    (fun k (v, o) ->
      P.Service.submit svc ~now:(Unix.gettimeofday ()) ~respond:(fun _ -> ())
        (Proto.Explain { id = 1_000_000 + k; var = v; obj = o }))
    pick;
  let w = P.Service.witness_index svc in
  set "provenance.entries" "count" (float_of_int (P.Provenance.entries w));
  set "provenance.sheds" "count" (float_of_int (P.Provenance.sheds w));
  let session =
    P.Solver.make_session ~config:(Check.solver_config ~cs) ~ctx_store:(P.Ctx.create_store ()) pag
  in
  let bad = ref 0 in
  let ex =
    Array.map
      (fun (v, o) ->
        let v = resolve v and o = resolve_obj o in
        let w, ns =
          time_ns (fun () -> Trace.span "explain.solve" (fun () -> P.Solver.explain session v o))
        in
        (match w with
        | Some w -> if Result.is_error (P.Solver.Witness.replay pag ~query:v w) then incr bad
        | None -> ());
        ns /. 1e6)
      pick
  in
  set "explain.solve_ms.p99" "ms" (quantile ex 0.99);
  !bad

(* The cluster layer: a sweep at a fixed modest rate through
   `cluster -b tomcat -r 2 -t 1`, answers checked against the CS
   reference; the router hop is client latency minus the replica's. *)
let cluster_layers (b : P.Suite.t) ~refs_cs ~rng =
  let t = tally () in
  with_server cluster2_cs (fun s ->
      let reqs, due = sweep_stream rng b ~rate:2000.0 ~n:(Array.length b.P.Suite.queries) in
      wire_pass ~socket:s.Wire.socket ~refs:refs_cs ~reqs ~due t);
  report_tally "cluster probe" t;
  set "router.hop_us.p50" "us" (Sample.q t.wire_us 0.5);
  set "router.hop_us.p99" "us" (Sample.q t.wire_us 0.99);
  let pag = b.P.Suite.pag in
  let plan = P.Schedule.prepare ~pag ~type_level:b.P.Suite.type_level in
  let load = Array.make (P.Pag.n_vars pag) 0 in
  Array.iter (fun v -> load.(v) <- load.(v) + 1) b.P.Suite.queries;
  let map = P.Shard_map.of_plan_balanced ~n_shards:2 ~load plan in
  set "router.busiest_share" "ratio" (P.Shard_map.busiest_share map ~load);
  let qs = b.P.Suite.queries in
  set "shard_map.home_ns" "ns" (ns_per_call (Array.length qs) (fun i -> ignore (P.Shard_map.home map qs.(i))));
  t.wrong + t.parts_bad

(* Wire-side layer figures from a traced tally. *)
let wire_layers (t : tally) ~scrape =
  set "svc.wire_us.p50" "us" (Sample.q t.wire_us 0.5);
  set "svc.wire_us.p99" "us" (Sample.q t.wire_us 0.99);
  set "loadgen.late_us.p99" "us" (Sample.q t.late_us 0.99);
  set "telemetry.scrape_ms" "ms" (median (Array.append (Sample.to_array t.lat.(3)) scrape));
  set "error_share" "ratio" (ratio (t.errors + t.wrong) t.sent);
  set "refined_p99_ms" "ms" (Sample.q t.lat.(1) 0.99);
  set "explain_p99_ms" "ms" (Sample.q t.lat.(2) 0.99);
  set "explain_found_share" "ratio" (ratio t.found t.explains);
  set "trace.parts_sum_violations" "count" (float_of_int t.parts_bad)

(* Slow-path probe: budget-refined queries and explains on pairs from the
   server's own answers in [t], plus scrapes, merged into [t]. *)
let slow_probe ~socket ~refs ~rng (t : tally) =
  let vars = Array.of_seq (Hashtbl.to_seq_keys t.answers) in
  Array.sort compare vars;
  if vars <> [||] then begin
    let reqs, due =
      mixed_stream ~shares:(0.0, 0.67) rng ~mix:(shuffle rng vars) ~mix_pos:(ref 0) ~clock:(ref 0.0)
        ~answers:t.answers ~rate:400.0 ~seconds:3.0
    in
    let s = tally () in
    wire_pass ~socket ~refs ~reqs ~due s;
    for k = 1 to 3 do
      Array.iter (Sample.add t.lat.(k)) (Sample.to_array s.lat.(k))
    done;
    t.explains <- t.explains + s.explains;
    t.found <- t.found + s.found;
    t.wrong <- t.wrong + s.wrong;
    t.errors <- t.errors + s.errors;
    t.sent <- t.sent + s.sent
  end

(* The libraries whose size is tracked; a deleted one reads 0 lines. *)
let libraries =
  [ "andersen"; "cfl"; "clients"; "cluster"; "conc"; "core"; "lang"; "matrix"; "obs";
    "oracle"; "pag"; "par"; "prim"; "provenance"; "refine"; "sched"; "sharing"; "stats";
    "svc"; "telemetry"; "workload" ]

let finish_trace ~name =
  loc_counts libraries;
  info "%d spans recorded" !Trace.count;
  Trace.write (Printf.sprintf "%s/trace-%s.json" out_dir name)

(* Tracing overhead: the same phase untraced, then traced. *)
let overhead ~untraced ~traced =
  set "trace.overhead_pct" "%" (if untraced = 0.0 then 0.0 else (traced -. untraced) /. untraced *. 100.0)

(* sweep-cs: full nominal-rate sweeps (a fresh server and one window
   each) for 60% of the run, then the ladder, one sweep a rung. *)
let run_sweep spec ~seed ~seconds ~trace =
  let b = build "tomcat" in
  let refs = Check.make ~cs:true b in
  let rng = Random.State.make [| seed; 17 |] in
  let setup = Calm.create () and rss = ref 0.0 and scrape = ref [] in
  let n_all = Array.length b.P.Suite.queries in
  let cycle ?(probe = false) ~rate t =
    let reqs, due = sweep_stream rng b ~rate ~n:n_all in
    with_server ~setup spec (fun s ->
        let socket = s.Wire.socket in
        wire_pass ~socket ~refs ~reqs ~due t;
        rss := Float.max !rss (Wire.rss_mb s);
        if probe then begin
          for _ = 1 to 3 do
            let _, ns = time_ns (fun () -> Wire.round_trip socket "metrics 0") in
            scrape := (ns /. 1e6) :: !scrape
          done;
          slow_probe ~socket ~refs ~rng t
        end)
  in
  let phase t secs =
    let until = deadline_of secs in
    let cycles = ref 0 in
    while !cycles < 2 || now_ns () < until do
      cycle ~rate:spec.nominal t;
      incr cycles
    done;
    report_tally spec.wname t
  in
  if not trace then begin
    let nominal = tally () in
    phase nominal (0.6 *. seconds);
    let wrong = ref nominal.wrong and sent = ref nominal.sent in
    let max_qps =
      max_qps spec ~nominal_ok:(rung_ok spec nominal) ~rung:(fun rate ->
          let t = tally () in
          cycle ~rate t;
          wrong := !wrong + t.wrong;
          sent := !sent + t.sent;
          t)
    in
    serve_e2e ~setup ~rss:!rss nominal ~max_qps;
    { correct = !wrong = 0; attempted = !sent; failed = nominal.errors + !wrong }
  end
  else begin
    let plain = tally () in
    phase plain (seconds /. 4.0);
    Trace.enabled := true;
    let traced = tally () in
    phase traced (seconds /. 4.0);
    overhead ~untraced:(Sample.q plain.lat.(0) 0.5) ~traced:(Sample.q traced.lat.(0) 0.5);
    cycle ~probe:true ~rate:spec.nominal traced;
    wire_layers traced ~scrape:(Array.of_list !scrape);
    build_layers [ b ] ~names:[ "tomcat" ];
    let acc = dq_acc () in
    ignore (dq_pass acc b ~cs:true ~req:(-1) b.P.Suite.queries);
    dq_layers acc;
    let reqs, due = sweep_stream rng b ~rate:spec.nominal ~n:n_all in
    let bad_replay = replay_layers b ~cs:true ~oracle:false reqs due in
    let bad_cluster = cluster_layers b ~refs_cs:refs ~rng in
    finish_trace ~name:spec.wname;
    let wrong = plain.wrong + traced.wrong + bad_replay + bad_cluster + traced.parts_bad in
    { correct = wrong = 0; attempted = plain.sent + traced.sent; failed = traced.errors + wrong }
  end

(* hot-ci-mixed: one long-lived server (set-up timed over five spawns),
   an untimed warm-up, the nominal mix in 0.5 s windows for 60% of the
   run, then the ladder on the same server, one 0.5 s window a rung. *)
let run_hot ~seed ~seconds ~trace =
  let spec = hot_ci_mixed in
  let b = build "tomcat" in
  let refs = Check.make b in
  let rng = Random.State.make [| seed; 29 |] in
  let mix = P.Suite.query_mix ~seed ~hot_share:0.75 b ~n:100_000 in
  let mix_pos = ref 0 and clock = ref 0.0 in
  let setup = Calm.create () in
  for _ = 1 to 4 do
    with_server ~setup spec ignore
  done;
  let r =
    with_server ~setup spec (fun s ->
        let socket = s.Wire.socket in
        let warm = tally () in
        let reqs, due =
          mixed_stream rng ~mix ~mix_pos ~answers:warm.answers ~clock ~rate:spec.nominal ~seconds:1.0
        in
        wire_pass ~socket ~refs ~reqs ~due warm;
        let pass t ~rate ~seconds =
          let reqs, due = mixed_stream rng ~mix ~mix_pos ~answers:warm.answers ~clock ~rate ~seconds in
          wire_pass ~socket ~refs ~reqs ~due t;
          (reqs, due)
        in
        let windows t ~rate ~secs ~len =
          let until = deadline_of secs in
          let k = ref 0 in
          while !k < 2 || now_ns () < until do
            ignore (pass t ~rate ~seconds:len);
            incr k
          done
        in
        if not trace then begin
          let nominal = tally () in
          windows nominal ~rate:spec.nominal ~secs:(0.6 *. seconds) ~len:0.5;
          report_tally spec.wname nominal;
          let wrong = ref (warm.wrong + nominal.wrong) and sent = ref (warm.sent + nominal.sent) in
          let max_qps =
            max_qps spec ~nominal_ok:(rung_ok spec nominal) ~rung:(fun rate ->
                let t = tally () in
                ignore (pass t ~rate ~seconds:0.5);
                wrong := !wrong + t.wrong;
                sent := !sent + t.sent;
                t)
          in
          serve_e2e ~setup ~rss:(Wire.rss_mb s) nominal ~max_qps;
          ({ correct = !wrong = 0; attempted = !sent; failed = nominal.errors + !wrong }, None)
        end
        else begin
          let plain = tally () in
          ignore (pass plain ~rate:spec.nominal ~seconds:(Float.max 1.0 (seconds /. 4.0)));
          Trace.enabled := true;
          let traced = tally () in
          let stream = pass traced ~rate:spec.nominal ~seconds:(Float.max 1.0 (seconds /. 4.0)) in
          report_tally spec.wname traced;
          overhead ~untraced:(Sample.q plain.lat.(0) 0.5) ~traced:(Sample.q traced.lat.(0) 0.5);
          wire_layers traced ~scrape:[||];
          let wrong = warm.wrong + plain.wrong + traced.wrong + traced.parts_bad in
          ( {
              correct = wrong = 0;
              attempted = warm.sent + plain.sent + traced.sent;
              failed = traced.errors + wrong;
            },
            Some stream )
        end)
  in
  match r with
  | o, None -> o
  | o, Some (reqs, due) ->
      build_layers [ b ] ~names:[ "tomcat" ];
      let acc = dq_acc () in
      ignore (dq_pass acc b ~cs:false ~req:(-1) b.P.Suite.queries);
      dq_layers acc;
      let bad_replay = replay_layers b ~cs:false ~oracle:true reqs due in
      let bad_cluster = cluster_layers b ~refs_cs:(Check.make ~cs:true b) ~rng in
      finish_trace ~name:spec.wname;
      let bad = bad_replay + bad_cluster in
      { o with correct = o.correct && bad = 0; failed = o.failed + bad }

(* batch-dq: passes over the six profiles (fresh jmp store per profile
   pass), each profile's queries in a seeded order. A query's latency is
   the time from its profile pass's start until its answer is decided.
   Each pass over the six profiles yields its own throughput and
   latency quantiles, with stolen time left out; the run reports their
   medians over the calm passes (Calm). *)
let run_batch ~seed ~seconds ~trace =
  let setup = Calm.create () in
  for _ = 1 to 11 do
    (* Each build starts from a collected heap, as in a fresh process, so
       it does not pay for collecting the builds before it. *)
    Gc.full_major ();
    let (_, ns), steal = with_steal (fun () -> time_ns (fun () -> List.map build batch_profiles)) in
    Calm.add setup ~steal (ns /. 1e9)
  done;
  let suites = List.map build batch_profiles in
  let refs = List.map (fun b -> (b, Check.make ~cs:true b)) suites in
  let rng = Random.State.make [| seed; 3 |] in
  let pass_qps = Calm.create () and pass_p50 = Calm.create () and pass_p99 = Calm.create () in
  let wall = ref 0.0 and queries = ref 0 and answered = ref 0 and wrong = ref 0 in
  let acc = dq_acc () in
  let passes secs =
    let deadline = deadline_of secs in
    let n = ref 0 in
    while !n = 0 || now_ns () < deadline do
      let lat = Sample.create () and pass_wall = ref 0.0 and pass_queries = ref 0 in
      let (), steal =
        with_steal @@ fun () ->
        List.iter
          (fun ((b : P.Suite.t), r) ->
            let qs = shuffle rng b.P.Suite.queries in
            let ticks = steal_ticks () in
            let rep, ns, start_us = dq_pass acc b ~cs:true ~req:!n qs in
            (* Both workers were busy, so the hypervisor took about
               steal / threads of the wall time from them; the pass
               figures leave that out, but never more than half. *)
            let stolen_ns = (steal_ticks () -. ticks) *. 1e7 /. float_of_int threads in
            let scale = Float.max 0.5 ((ns -. stolen_ns) /. ns) in
            wall := !wall +. ns;
            queries := !queries + Array.length qs;
            pass_wall := !pass_wall +. (ns *. scale);
            pass_queries := !pass_queries + Array.length qs;
            Array.iter
              (fun q -> Sample.add lat ((q.P.Report.qs_end_us -. start_us) /. 1e3 *. scale))
              rep.P.Report.r_queries;
            Array.iter
              (fun (o : P.Query.outcome) ->
                match o.P.Query.result with
                | P.Query.Points_to _ ->
                    incr answered;
                    let names = Check.obj_names b.P.Suite.pag (P.Query.objects o.P.Query.result) in
                    if not (Check.answer_ok r o.P.Query.var names) then incr wrong
                | P.Query.Out_of_budget -> ())
              rep.P.Report.r_outcomes)
          (Array.to_list (shuffle rng (Array.of_list refs)))
      in
      Calm.add pass_qps ~steal (float_of_int !pass_queries /. (!pass_wall /. 1e9));
      Calm.add pass_p50 ~steal (Sample.q lat 0.5);
      Calm.add pass_p99 ~steal (Sample.q lat 0.99);
      incr n
    done;
    info "batch-dq: %d passes, %d queries, %d answered, %d wrong; median steal %.1f/s" !n !queries
      !answered !wrong (Calm.steal_median pass_qps)
  in
  let qps () = float_of_int !queries /. (!wall /. 1e9) in
  if not trace then begin
    passes seconds;
    set "setup_s" "s" (Calm.median setup);
    set "peak_rss_mb" "MiB" (vm_hwm_mb None);
    set "p50_ms" "ms" (Calm.median pass_p50);
    set "p99_ms" "ms" (Calm.median pass_p99);
    set "max_qps" "1/s" (Calm.median pass_qps);
    set "answered_share" "ratio" (ratio !answered !queries);
    { correct = !wrong = 0; attempted = !queries; failed = !wrong }
  end
  else begin
    passes (seconds /. 4.0);
    let untraced = qps () in
    wall := 0.0;
    queries := 0;
    Trace.enabled := true;
    passes (seconds /. 4.0);
    (* qps is "better higher": report overhead as the traced slowdown. *)
    overhead ~untraced:(1.0 /. untraced) ~traced:(1.0 /. qps ());
    dq_layers acc;
    build_layers suites ~names:batch_profiles;
    let tomcat = List.nth suites 4 in
    let refs_cs = snd (List.nth refs 4) in
    (* The wire-side layers on the batch's largest program: one sweep at
       the sweep-cs nominal rate plus the slow-path probe. *)
    let t = tally () in
    let reqs, due = sweep_stream rng tomcat ~rate:sweep_cs.nominal ~n:(Array.length tomcat.P.Suite.queries) in
    let scrape = ref [] in
    with_server sweep_cs (fun s ->
        let socket = s.Wire.socket in
        wire_pass ~socket ~refs:refs_cs ~reqs ~due t;
        for _ = 1 to 3 do
          scrape := (snd (time_ns (fun () -> Wire.round_trip socket "metrics 0")) /. 1e6) :: !scrape
        done;
        slow_probe ~socket ~refs:refs_cs ~rng t);
    wire_layers t ~scrape:(Array.of_list !scrape);
    let bad_replay = replay_layers tomcat ~cs:true ~oracle:false reqs due in
    let bad_cluster = cluster_layers tomcat ~refs_cs ~rng in
    finish_trace ~name:"batch-dq";
    let bad = !wrong + t.wrong + t.parts_bad + bad_replay + bad_cluster in
    { correct = bad = 0; attempted = !queries + t.sent; failed = bad + t.errors }
  end

(* ------------------------------------------------------------------ *)

let end_to_end = [ "setup_s"; "peak_rss_mb"; "p50_ms"; "p99_ms"; "max_qps"; "answered_share" ]

let per_layer () =
  [
    "workload.build_ms"; "pag.edges"; "oracle.build_ms"; "oracle.bytes"; "oracle.rows";
    "oracle.lookup_ns"; "oracle.hit_share"; "sched.prepare_ms"; "sched.mean_group_size";
    "cfl.steps_walked"; "cfl.steps_per_s"; "cfl.minor_words_per_query"; "cfl.solve_us.p99";
    "sharing.ratio_saved"; "sharing.early_terminations"; "sharing.jmp_hit_ratio";
    "par.run_ms"; "par.busy_share"; "par.imbalance";
    "svc.queue_wait_us.p99"; "svc.batch_wait_us.p99"; "svc.solve_us.p99";
    "svc.respond_us.p99"; "svc.pump_ms.p99"; "svc.batch_size.mean"; "svc.batch_size.p99";
    "svc.parse_ns"; "svc.render_ns"; "svc.wire_us.p50"; "svc.wire_us.p99";
    "svc.cache_hit_ratio"; "telemetry.scrape_ms"; "telemetry.render_ms";
    "explain.solve_ms.p99"; "provenance.entries"; "provenance.sheds";
    "router.hop_us.p50"; "router.hop_us.p99"; "router.busiest_share"; "shard_map.home_ns";
    "loadgen.late_us.p99"; "error_share"; "refined_p99_ms"; "explain_p99_ms";
    "explain_found_share"; "trace.overhead_pct"; "trace.parts_sum_violations";
  ]
  @ List.map (fun l -> "loc." ^ l) libraries

(* A content digest of the analysed sources, standing in for the commit
   id in checkouts that are not git repositories. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune" then
          files := p :: !files)
      (Sys.readdir dir)
  in
  List.iter walk [ "lib"; "bin" ];
  let files = List.sort compare !files in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files)))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: missing " ^ exe);
    exit 2
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Terminated early: exit through at_exit, which stops every server. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let seconds = float_of_int (max 1 !seconds) and trace = !trace = 1 in
  let seed = !seed in
  let o =
    match !workload with
    | "batch-dq" -> run_batch ~seed ~seconds ~trace
    | "sweep-cs" -> run_sweep sweep_cs ~seed ~seconds ~trace
    | "hot-ci-mixed" -> run_hot ~seed ~seconds ~trace
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  Printf.printf "host: nproc=%d ocaml=%s sources=%s workload=%s seed=%d trace=%b\n" (nproc ())
    Sys.ocaml_version (source_digest ()) !workload seed trace;
  let names = if trace then per_layer () else end_to_end in
  print_result ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
    (List.map
       (fun n ->
         match Hashtbl.find_opt metrics n with
         | Some (v, u) -> (n, v, u)
         | None -> failwith ("metric not measured: " ^ n))
       names);
  if not o.correct then exit 1
