(* The repository benchmark: one closed-loop, single-threaded workload per
   run, driven through the public engine API only.

     xbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   A pass sets up one instance of the workload and runs every operation
   in order. A run does a fixed amount of work, whatever the speed of the
   code under test: one pass of every instance of the workload, sized so
   that the timed engine calls take about S seconds on the reference host
   (see README.md). Every engine call is timed from outside;
   the correctness oracle runs after each call, untimed. With --trace 0
   it reports the end-to-end metrics, with --trace 1 the per-layer ones;
   the last stdout line is the JSON result. See README.md for every
   metric and workload. *)

module Graph = Xheal_graph.Graph
module Cost = Xheal_core.Cost
module Xheal = Xheal_core.Xheal
module Op = Xheal_core.Op
module Cloud = Xheal_core.Cloud
module Monitor = Xheal_obs.Monitor
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Detect = Xheal_fault.Detect
module W = Workload

let now = Trace.now
let seconds_between = Trace.seconds_between

(* ------------------------------------------------------------------ *)
(* One pass: set up, run every operation, audit the final graph.       *)

(* The simulated outcome of a pass: a function of the seed and instance
   alone, so it must be identical across passes of one instance, traced
   or not, monitored or not. *)
type sim = {
  totals : Cost.totals;
  repairs : int;
  cases : int array;  (** case1, case21, case22, batch *)
  splices : int;
  combine_members : int;
  clouds_mean : float;
  cloud_size_max : int;
  cloud_size_mean : float;
  degree_ratio_max : float;
  stretch_max : float;
  lambda2 : float;
}

type pass = {
  setups : float list;  (** Seconds per extra set-up (untraced runs only). *)
  latencies : float list;  (** Seconds per repair call. *)
  engine_s : float;  (** Summed timed engine calls, insertions included. *)
  engine_alloc_b : float;  (** Bytes allocated inside engine calls (traced passes). *)
  attempted : int;
  failures : (int * string list) list;  (** Operation index, reasons. *)
  sim : sim;
  monitor_checks : int;
  monitor_violations : int;
  trace : Trace.t option;
}

type rig = { inputs : W.t; eng : Xheal.t; gp : Graph.t; mon : Monitor.t option }

let cfg = Xheal_core.Config.default

(* Extra set-ups timed at each tenth of a pass of an untraced run; setup_s
   is the median of all of them. Spread over the whole run, they see the host as
   the engine calls do, not in one burst of a few milliseconds each. *)
let setups_per_tenth = 2

(* Set-up: input generation plus creating the engine, backend and monitor. *)
let setup kind ~seed ~instance ~monitored ~trace =
  let inputs = W.generate kind ~seed ~instance in
  let g0 = inputs.W.g0 in
  let derive = W.derive ~seed ~instance in
  let rng = Random.State.make [| 0xe9; seed; instance |] in
  let mon, eng =
    match kind with
    | W.Teardown -> (None, Xheal.create ~cfg ~rng g0)
    | W.Churn_lossy ->
      let plan = Fault_plan.make ~seed:(derive 1) ~drop:0.05 ~duplicate:0.02 () in
      let schedule = Schedule.async ~seed:(derive 2) ~fairness:4 in
      let backend =
        Xheal_distributed.Pricing.backend ~seed:(derive 3) ~d:cfg.Xheal_core.Config.d ()
      in
      let backend = match trace with Some t -> Trace.wrap t backend | None -> backend in
      (None, Xheal.create ~cfg ~plan ~schedule ~backend ~rng g0)
    | W.Batch_monitored ->
      let mon =
        if monitored then
          Some
            (Monitor.create
               ~config:
                 {
                   Monitor.default_config with
                   Monitor.kappa = Xheal_core.Config.kappa cfg;
                   cadence = 1;
                   seed = derive 4;
                 }
               g0)
        else None
      in
      (mon, Xheal.create ~cfg ?monitor:mon ~rng g0)
  in
  { inputs; eng; gp = Graph.copy g0; mon }

let apply eng = function
  | W.Delete v -> Xheal.delete eng v
  | W.Detect_delete v -> Xheal.delete ~trigger:(Xheal.Detector Detect.default) eng v
  | W.Delete_many vs -> Xheal.delete_many eng vs
  | W.Insert (v, nbrs) -> Xheal.insert eng ~node:v ~neighbors:nbrs

let case_index = function
  | Cost.Case1 -> 0
  | Cost.Case21 -> 1
  | Cost.Case22 -> 2
  | Cost.Batch _ -> 3
  | Cost.Insertion -> -1

let run_pass kind ~seed ~instance ~monitored ~traced ~time_setups =
  let trace = if traced then Some (Trace.create ()) else None in
  let { inputs; eng; gp; mon } = setup kind ~seed ~instance ~monitored ~trace in
  let ops = inputs.W.ops in
  let n_ops = Array.length ops in
  let kappa = Xheal.kappa eng in
  let latencies = ref [] and engine_s = ref 0.0 in
  let engine_alloc_b = ref 0.0 and failures = ref [] in
  let cases = Array.make 4 0 and splices = ref 0 and combine_members = ref 0 in
  let cloud_samples = ref [] and degree_samples = ref [] and setups = ref [] in
  Array.iteri
    (fun i op ->
      let repair = W.is_repair op in
      let violations0 = match mon with Some m -> Monitor.num_violations m | None -> 0 in
      let a0 = if traced then Gc.allocated_bytes () else 0.0 in
      let call () =
        match trace with
        | None -> apply eng op
        | Some t ->
          Trace.engine_call t ~name:(if repair then "core.repair" else "core.insert") ~op:i
            (fun () -> apply eng op)
      in
      let c0 = now () in
      let raised = match call () with () -> None | exception e -> Some (Printexc.to_string e) in
      let c1 = now () in
      let dt = seconds_between c0 c1 in
      if traced then engine_alloc_b := !engine_alloc_b +. (Gc.allocated_bytes () -. a0);
      engine_s := !engine_s +. dt;
      if repair then latencies := dt :: !latencies;
      (* Untimed from here on: G' upkeep, layer counts, the oracle. *)
      let healed = Xheal.graph eng in
      (match op with
      | W.Insert (v, nbrs) ->
        Graph.add_node gp v;
        List.iter
          (fun u -> if u <> v && Graph.has_node healed u then ignore (Graph.add_edge gp v u))
          nbrs
      | _ -> ());
      let report = if repair then Xheal.last_report eng else None in
      (match report with
      | Some r ->
        let c = case_index r.Cost.case in
        if c >= 0 then cases.(c) <- cases.(c) + 1;
        List.iter
          (function
            | Op.Splice _ -> incr splices
            | Op.Combine { clouds } ->
              List.iter (fun (m, _) -> combine_members := !combine_members + List.length m) clouds
            | _ -> ())
          (Xheal.last_ops eng)
      | None -> ());
      if ((i + 1) * 10 / n_ops) > (i * 10 / n_ops) then begin
        cloud_samples := List.map Cloud.size (Xheal.clouds eng) :: !cloud_samples;
        let d = Xheal_metrics.Degree.report ~kappa ~healed ~reference:gp in
        degree_samples := d.Xheal_metrics.Degree.max_ratio :: !degree_samples;
        if time_setups then
          for _ = 1 to setups_per_tenth do
            let t0 = now () in
            ignore (Sys.opaque_identity (setup kind ~seed ~instance ~monitored ~trace:None));
            setups := seconds_between t0 (now ()) :: !setups
          done
      end;
      let o =
        {
          Oracle.raised;
          healed;
          reference = gp;
          kappa;
          report;
          detect_victim = (match op with W.Detect_delete v -> Some v | _ -> None);
          new_violations =
            (match mon with Some m -> Monitor.num_violations m - violations0 | None -> 0);
        }
      in
      match Oracle.failures o with [] -> () | why -> failures := (i, why) :: !failures)
    ops;
  let healed = Xheal.graph eng in
  (* The oracle has checked connectivity and degrees after every
     operation; the engine's own consistency check runs once, at the end. *)
  let audit = match Xheal.check eng with Ok () -> [] | Error e -> [ (n_ops, [ "Xheal.check: " ^ e ]) ] in
  let failures = List.rev !failures @ audit in
  let samples = List.rev !cloud_samples in
  let mean xs =
    if xs = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  let sizes = List.concat samples in
  let sim =
    {
      totals = Xheal.totals eng;
      repairs = List.length !latencies;
      cases;
      splices = !splices;
      combine_members = !combine_members;
      clouds_mean = mean (List.map List.length samples);
      cloud_size_max = List.fold_left max 0 sizes;
      cloud_size_mean = mean sizes;
      degree_ratio_max =
        List.fold_left ( +. ) 0.0 !degree_samples /. float_of_int (List.length !degree_samples);
      stretch_max =
        Xheal_metrics.Stretch.max_stretch ~max_sources:64
          ~rng:(Random.State.make [| 0x57; seed; instance |])
          ~healed ~reference:gp ();
      lambda2 =
        Xheal_linalg.Spectral.lambda2 ~rng:(Random.State.make [| 0x1a; seed; instance |]) healed;
    }
  in
  {
    setups = !setups;
    latencies = !latencies;
    engine_s = !engine_s;
    engine_alloc_b = !engine_alloc_b;
    attempted = n_ops;
    failures;
    sim;
    monitor_checks = (match mon with Some m -> Monitor.checks m | None -> 0);
    monitor_violations = (match mon with Some m -> Monitor.num_violations m | None -> 0);
    trace;
  }

(* ------------------------------------------------------------------ *)
(* Statistics and output.                                              *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let num v =
  if not (Float.is_finite v) then "-1"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "%-34s %16s %s\n" name (num v) unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Whether two passes of one instance had the same simulated outcome;
   [what] names the pairing in the message. *)
let same_sim ~what (a : pass) (b : pass) =
  if compare a.sim b.sim = 0 then true
  else begin
    Printf.eprintf "determinism self-check failed: %s differ in simulated totals\n%!" what;
    false
  end

let report_failures ~workload ~seed passes =
  List.iteri
    (fun k p ->
      List.iter
        (fun (i, why) ->
          Printf.eprintf "FAIL workload=%s seed=%d pass=%d op=%d: %s\n%!" workload seed k i
            (String.concat "; " why))
        p.failures)
    passes

(* The end-to-end metrics of an untraced run, one pass per instance.
   Simulated metrics are means over the instances; timings pool every
   repair call of the run. *)
let end_to_end (passes : pass list) =
  let setups = List.concat_map (fun p -> p.setups) passes in
  let mean f =
    List.fold_left (fun acc p -> acc +. f p.sim) 0.0 passes /. float_of_int (List.length passes)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let latencies = List.concat_map (fun p -> p.latencies) passes in
  let engine_s = List.fold_left (fun acc p -> acc +. p.engine_s) 0.0 passes in
  let failed = sum (fun p -> List.length p.failures) in
  List.iteri
    (fun k p ->
      Printf.printf "pass %d: %d repairs, %.3f s in engine calls\n" k p.sim.repairs p.engine_s)
    passes;
  Printf.printf "repair samples: %d; set-up median of %d\n" (List.length latencies)
    (List.length setups);
  [
    ("repairs_per_s", "1/s", float_of_int (sum (fun p -> p.sim.repairs)) /. engine_s);
    ("repair_ms_p50", "ms", 1e3 *. percentile 0.50 latencies);
    ("repair_ms_p99", "ms", 1e3 *. percentile 0.99 latencies);
    ("setup_s", "s", median setups);
    ("heap_peak_mb", "MB", heap_peak_mb ());
    ( "msgs_per_repair",
      "msgs",
      mean (fun s -> float_of_int s.totals.Cost.total_messages /. float_of_int s.repairs) );
    ("repair_rounds_max", "rounds", mean (fun s -> float_of_int s.totals.Cost.max_rounds));
    ("degree_ratio_max", "ratio", mean (fun s -> s.degree_ratio_max));
    ("stretch_max", "ratio", mean (fun s -> s.stretch_max));
    ("lambda2", "eig", mean (fun s -> s.lambda2));
    ( "ok_share",
      "share",
      1.0 -. (float_of_int failed /. float_of_int (sum (fun p -> p.attempted))) );
  ]

(* Per-layer metrics from the traced pass [t], its untraced twin [u] and,
   on the monitored workload, the traced pass without the monitor [n]. *)
let per_layer (t : pass) (u : pass) (n : pass option) =
  let tr = Option.get t.trace in
  let layers = Trace.layers tr in
  let layer_s l = Trace.busy tr ~name:(Trace.span_name l) in
  let dist_busy = List.fold_left (fun acc l -> acc +. layer_s l) 0.0 layers in
  let monitor_s = match n with Some n -> t.engine_s -. n.engine_s | None -> 0.0 in
  let busy = Trace.busy tr ~name:"core.repair" in
  let s = t.sim in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 layers in
  let calls = sum (fun l -> l.Trace.calls) in
  let messages = sum (fun l -> l.Trace.messages) in
  let f = float_of_int in
  let per_closure =
    List.concat_map
      (fun (l : Trace.layer) ->
        let p = "distributed." ^ l.Trace.lname in
        [
          (p ^ ".calls", "count", f l.Trace.calls);
          (p ^ ".busy_s", "s", layer_s l);
          (p ^ ".messages", "msgs", f l.Trace.messages);
          (p ^ ".rounds", "rounds", f l.Trace.rounds);
        ])
      layers
  in
  [
    ("core.repair.busy_s", "s", busy);
    ("core.repair.self_s", "s", busy -. dist_busy -. monitor_s);
    ("core.insert.busy_s", "s", Trace.busy tr ~name:"core.insert");
    ("core.alloc_mb", "MB", (t.engine_alloc_b -. Trace.backend_alloc_b tr) /. 1e6);
    ("core.combines", "count", f s.totals.Cost.combines);
    ("core.case.case1", "count", f s.cases.(0));
    ("core.case.case21", "count", f s.cases.(1));
    ("core.case.case22", "count", f s.cases.(2));
    ("core.case.batch", "count", f s.cases.(3));
    ("core.splices", "count", f s.splices);
    ("core.combine_members", "count", f s.combine_members);
    ("graph.edges_added", "count", f s.totals.Cost.total_edges_added);
    ("graph.edges_removed", "count", f s.totals.Cost.total_edges_removed);
    ("expander.clouds", "count", s.clouds_mean);
    ("expander.cloud_size_max", "nodes", f s.cloud_size_max);
    ("expander.cloud_size_mean", "nodes", s.cloud_size_mean);
  ]
  @ per_closure
  @ [
      ( "distributed.msgs_per_busy_s",
        "msgs/s",
        if dist_busy > 0.0 then f messages /. dist_busy else 0.0 );
      ("distributed.dropped", "msgs", f (sum (fun l -> l.Trace.dropped)));
      ("distributed.duplicated", "msgs", f (sum (fun l -> l.Trace.duplicated)));
      ("distributed.delayed", "msgs", f (sum (fun l -> l.Trace.delayed)));
      ("distributed.escalations", "count", f (sum (fun l -> l.Trace.escalations)));
      ( "distributed.converged_share",
        "share",
        if calls > 0 then f (sum (fun l -> l.Trace.converged)) /. f calls else 0.0 );
      ( "distributed.detect.confirmed_share",
        "share",
        if tr.Trace.detect.Trace.calls > 0 then
          f tr.Trace.detect.Trace.confirmed /. f tr.Trace.detect.Trace.calls
        else 0.0 );
      ("obs.monitor.busy_s", "s", monitor_s);
      ("obs.monitor.checks", "count", f t.monitor_checks);
      ("obs.monitor.violations", "count", f t.monitor_violations);
      ("trace.overhead_share", "share", (t.engine_s /. u.engine_s) -. 1.0);
      ( "trace.unaccounted_share",
        "share",
        (t.engine_s -. Trace.top_level_s tr) /. t.engine_s );
    ]

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let usage () =
  prerr_endline
    "usage: xbench.exe --workload teardown|churn-lossy|batch-monitored --seed N --seconds S \
     --trace 0|1 [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let kind = match W.of_name !workload with Some k -> k | None -> usage () in
  let seed = !seed and traced = !trace = 1 in
  let missed = Oracle.self_test () in
  if missed <> [] then begin
    Printf.eprintf "oracle self-test missed planted violations: %s\n%!" (String.concat ", " missed);
    exit 1
  end;
  let monitored = kind = W.Batch_monitored in
  (* A traced run's passes make no extra set-ups, so that its untraced and
     traced passes run under the same conditions. *)
  let time_setups = not traced in
  let pass ~instance ~monitored ~traced =
    Gc.compact ();
    run_pass kind ~seed ~instance ~monitored ~traced ~time_setups
  in
  let workload = W.name kind in
  let finish ~deterministic passes metrics =
    report_failures ~workload ~seed passes;
    let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 passes in
    let failed = List.fold_left (fun acc p -> acc + List.length p.failures) 0 passes in
    let timed = List.fold_left (fun acc p -> acc +. p.engine_s) 0.0 passes in
    Printf.printf "timed engine calls: %.2f s (sized for about %g s)\n" timed !seconds;
    print_result ~correct:(failed = 0 && deterministic) ~attempted ~failed metrics
  in
  if not traced then begin
    let passes =
      List.init (W.instances kind) (fun instance -> pass ~instance ~monitored ~traced:false)
    in
    finish ~deterministic:true passes (end_to_end passes)
  end
  else begin
    (* Instance 0 only: untraced, traced, and on the monitored workload
       traced without the monitor. *)
    let u = pass ~instance:0 ~monitored ~traced:false in
    let t = pass ~instance:0 ~monitored ~traced:true in
    let n = if monitored then Some (pass ~instance:0 ~monitored:false ~traced:true) else None in
    let deterministic =
      same_sim ~what:"the untraced and traced runs of one seed" u t
      &&
      match n with
      | Some n -> same_sim ~what:"the monitored and unmonitored runs" t n
      | None -> true
    in
    if !out <> "" then begin
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      let path = Filename.concat !out (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed) in
      Trace.export (Option.get t.trace) path;
      Printf.printf "spans written to %s\n" path
    end;
    finish ~deterministic (t :: u :: Option.to_list n) (per_layer t u n)
  end
