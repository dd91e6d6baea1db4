(* Asynchronous engine: Schedule/Event_queue units, the conformance
   property gating the event-driven Netsim on the historical round loop
   (run_reference, the golden oracle), fairness/liveness under
   adversarial schedules, delay-coupling monotonicity, and the
   crashed-destination quiescence regression. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Msg = Xheal_distributed.Msg
module Fault_plan = Xheal_distributed.Fault_plan
module Schedule = Xheal_distributed.Schedule
module Event_queue = Xheal_distributed.Event_queue
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo
module Cloud_build = Xheal_distributed.Cloud_build
module Dist_repair = Xheal_distributed.Dist_repair
module Scope = Xheal_obs.Scope
module Defense = Xheal_distributed.Defense
module Byzantine = Xheal_distributed.Byzantine

let rng seed = Random.State.make [| seed |]

(* ---------- Schedule ---------- *)

let test_schedule_basics () =
  Alcotest.(check bool) "sync is sync" true (Schedule.is_sync Schedule.sync);
  Alcotest.(check int) "sync fairness" 1 (Schedule.fairness Schedule.sync);
  Alcotest.(check int) "sync delay" 1
    (Schedule.delay Schedule.sync ~src:3 ~dst:7 ~k:5);
  let a = Schedule.async ~seed:1 ~fairness:4 in
  Alcotest.(check bool) "async is not sync" false (Schedule.is_sync a);
  Alcotest.(check int) "async fairness" 4 (Schedule.fairness a);
  Alcotest.check_raises "fairness >= 1"
    (Invalid_argument "Schedule.async: fairness must be >= 1") (fun () ->
      ignore (Schedule.async ~seed:1 ~fairness:0));
  Alcotest.(check bool) "reseed sync is identity" true
    (Schedule.is_sync (Schedule.reseed Schedule.sync 3))

let prop_schedule_delay_bounds =
  QCheck.Test.make ~name:"schedule: delay deterministic and within [1,F]" ~count:200
    QCheck.(quad (int_range 0 10_000) (int_range 1 64) small_nat small_nat)
    (fun (seed, fairness, src, k) ->
      let t = Schedule.async ~seed ~fairness in
      let d = Schedule.delay t ~src ~dst:(src + 1) ~k in
      d = Schedule.delay t ~src ~dst:(src + 1) ~k && 1 <= d && d <= fairness)

(* Raising F can only lengthen any individual delay — the coupling that
   makes quiescence time monotone in the fairness bound. *)
let prop_schedule_delay_coupled =
  QCheck.Test.make ~name:"schedule: delay monotone in fairness" ~count:200
    QCheck.(quad (int_range 0 10_000) (pair (int_range 1 32) (int_range 1 32)) small_nat
              small_nat)
    (fun (seed, (f1, f2), src, k) ->
      let lo = min f1 f2 and hi = max f1 f2 in
      let d t = Schedule.delay t ~src ~dst:(src + 2) ~k in
      d (Schedule.async ~seed ~fairness:lo) <= d (Schedule.async ~seed ~fairness:hi))

let test_schedule_fairness_one_is_sync_timing () =
  let t = Schedule.async ~seed:99 ~fairness:1 in
  for k = 0 to 50 do
    Alcotest.(check int)
      (Printf.sprintf "delay (k=%d)" k)
      1
      (Schedule.delay t ~src:(k mod 5) ~dst:(k mod 7) ~k)
  done

(* ---------- Event queue ---------- *)

let drain q =
  let rec go acc = match Event_queue.pop q with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_event_queue_orders_by_time_then_seq () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "fresh queue empty" true (Event_queue.is_empty q);
  Event_queue.add q ~time:3 ~seq:0 "c";
  Event_queue.add q ~time:1 ~seq:(-1) "b";
  Event_queue.add q ~time:1 ~seq:(-4) "a";
  Event_queue.add q ~time:7 ~seq:2 "d";
  Alcotest.(check int) "length" 4 (Event_queue.length q);
  Alcotest.(check (option int)) "min time" (Some 1) (Event_queue.min_time q);
  (* Same time, lower (more recent, decreasing) seq first. *)
  Alcotest.(check (list string)) "pop order" [ "a"; "b"; "c"; "d" ] (drain q);
  Alcotest.(check (option int)) "drained min time" None (Event_queue.min_time q)

let test_event_queue_pop_due () =
  let q = Event_queue.create () in
  List.iteri (fun i t -> Event_queue.add q ~time:t ~seq:(-i) (t, i)) [ 5; 2; 9; 2; 1 ];
  Alcotest.(check (list (pair int int))) "due at 2" [ (1, 4); (2, 3); (2, 1) ]
    (Event_queue.pop_due q ~now:2);
  Alcotest.(check (list (pair int int))) "nothing due at 3" [] (Event_queue.pop_due q ~now:3);
  Alcotest.(check int) "rest still queued" 2 (Event_queue.length q)

let prop_event_queue_sorts =
  QCheck.Test.make ~name:"event queue: pop is a (time, seq) sort" ~count:100
    QCheck.(small_list (pair (int_range 0 20) (int_range (-50) 50)))
    (fun entries ->
      (* Duplicate (time, seq) keys have no defined relative order. *)
      let entries = List.sort_uniq compare entries in
      let q = Event_queue.create () in
      List.iter (fun (time, seq) -> Event_queue.add q ~time ~seq (time, seq)) entries;
      drain q = List.sort compare entries)

(* ---------- Conformance: event engine vs golden oracle ---------- *)

(* Workload builders return a fresh net plus a result getter, so each
   engine runs on untouched state. *)

let election_workload seed () =
  let parts = List.init (6 + (seed mod 7)) (fun i -> ((i * 13) + seed) mod 97) in
  let parts = List.sort_uniq Int.compare parts in
  let net = Netsim.create () in
  let get = Election.install ~rng:(rng seed) net parts in
  (net, fun () -> Option.map (fun l -> [ l ]) (get ()))

let bfs_workload seed () =
  let g = Gen.random_h_graph ~rng:(rng seed) (8 + (seed mod 17)) 2 in
  let net = Netsim.create () in
  let get = Bfs_echo.install net ~graph:g ~root:0 in
  (net, fun () -> get ())

(* The retry-driven echo hands the simulator a quiet-until hint, so
   [run] skips its idle steps while [run_reference] still steps every
   node: agreement on these workloads shows that skipping is exact. *)
let robust_bfs_workload ~defense seed () =
  let g = Gen.random_h_graph ~rng:(rng seed) (8 + (seed mod 17)) 2 in
  let net = Netsim.create () in
  let get = Bfs_echo.install_robust ~defense net ~graph:g ~root:0 in
  (net, fun () -> get ())

let quorum = Defense.make ~subtree_quorum:true ()

(* Grace covering the echo's default retry interval (3). *)
let robust_grace = 8

let check_conformant ?plan ?grace name mk =
  let run engine =
    let net, get = mk () in
    let s = engine ?max_rounds:(Some 2_000) ?plan ?grace net in
    (s, get ())
  in
  let a, ra = run (fun ?max_rounds ?plan ?grace net -> Netsim.run ?max_rounds ?plan ?grace net) in
  let b, rb = run (fun ?max_rounds ?plan ?grace net -> Netsim.run_reference ?max_rounds ?plan ?grace net) in
  Alcotest.(check bool) (name ^ ": identical stats") true (a = b);
  Alcotest.(check bool) (name ^ ": identical result") true (ra = rb);
  (a, ra)

let test_conformance_election () =
  let s, leader = check_conformant "election" (election_workload 61) in
  Alcotest.(check bool) "converged" true s.Netsim.converged;
  Alcotest.(check bool) "a leader emerged" true (leader <> None)

let test_conformance_bfs () =
  let s, _ = check_conformant "bfs-echo" (bfs_workload 17) in
  Alcotest.(check bool) "converged" true s.Netsim.converged

let test_conformance_under_faults () =
  (* The oracle property is stronger than the issue demands: the two
     engines agree bit-for-bit even under a fault gauntlet exercising
     every knob at once, because the event engine mirrors the legacy
     loop's RNG draw order exactly. *)
  let plan =
    Fault_plan.make ~seed:23 ~drop:0.15 ~duplicate:0.2 ~delay:0.25 ~max_delay:4
      ~crashes:[ (3, 6) ]
      ~partitions:[ { Fault_plan.from_round = 1; until_round = 4; cut = [ (0, 1) ] } ]
      ()
  in
  let s, _ = check_conformant ~plan ~grace:4 "faulty bfs-echo" (bfs_workload 29) in
  Alcotest.(check bool) "faults actually fired" true (s.Netsim.dropped > 0);
  List.iter
    (fun (name, defense) ->
      let s, _ =
        check_conformant ~plan ~grace:robust_grace name (robust_bfs_workload ~defense 29)
      in
      Alcotest.(check bool) (name ^ ": faults actually fired") true (s.Netsim.dropped > 0);
      Alcotest.(check bool) (name ^ ": retries ran") true (s.Netsim.rounds > 20))
    [ ("faulty robust bfs-echo", Defense.none); ("faulty quorum bfs-echo", quorum) ]

(* Workloads 0-1 are the classic protocols on a fault-free network;
   2-3 are the hinted robust echo (no defense / subtree quorum) under a
   faulty plan — loss, duplication, delay — and, for the quorum, a
   lying child whose padded claims exercise the vote-and-settle path. *)
(* The one idle step of the quorum echo that is not a no-op: two lying
   leaf children forge claims that share one phantom id. Each retry
   the parent re-queries the phantom for both claims in turn; when the
   second claim's query abandons it, the first claim (already checked
   this step) is left settleable with no mail on the way, and settles
   at the parent's next step. The hint must wake the parent for it.
   Seed 144016 makes both Corrupt_payload rewrites pick the same
   phantom; every message is delayed one extra step so the children's
   resent claims do not land on that step; give_up 11 and 12 put the
   abandoning query on either claim. *)
let test_conformance_pending_settle () =
  let plan =
    Fault_plan.make ~seed:144016 ~delay:1.0 ~max_delay:1
      ~byzantine:[ (1, Fault_plan.Corrupt_payload); (2, Fault_plan.Corrupt_payload) ]
      ()
  in
  let phantom src =
    match Byzantine.tamper plan ~src ~dst:0 ~k:0 (Msg.Subtree [ src ]) with
    | Some (Msg.Subtree [ _; p ]) -> p
    | _ -> -1
  in
  Alcotest.(check int) "forged claims share a phantom" (phantom 1) (phantom 2);
  let g = Graph.of_edges [ (0, 1); (0, 2) ] in
  List.iter
    (fun give_up ->
      let mk () =
        let net = Netsim.create () in
        (net, Bfs_echo.install_robust ~defense:quorum ~give_up net ~graph:g ~root:0)
      in
      let name = Printf.sprintf "pending settle (give_up %d)" give_up in
      let s, got = check_conformant ~plan ~grace:robust_grace name mk in
      Alcotest.(check bool) (name ^ ": converged") true s.Netsim.converged;
      Alcotest.(check (option (list int))) (name ^ ": phantom filtered") (Some [ 0; 1; 2 ]) got)
    [ 11; 12 ]

let prop_conformance =
  QCheck.Test.make ~name:"conformance: sync event engine == reference loop" ~count:80
    QCheck.(pair (int_range 0 9_999) (int_range 0 3))
    (fun (seed, workload) ->
      let faulty byzantine =
        Fault_plan.make ~seed ~drop:0.1 ~duplicate:0.1 ~delay:0.2 ~max_delay:3 ~byzantine ()
      in
      let mk, plan, grace =
        match workload with
        | 0 -> (election_workload seed, Fault_plan.none, 0)
        | 1 -> (bfs_workload seed, Fault_plan.none, 0)
        | 2 -> (robust_bfs_workload ~defense:Defense.none seed, faulty [], robust_grace)
        | _ ->
          ( robust_bfs_workload ~defense:quorum seed,
            faulty [ (1 + (seed mod 7), Fault_plan.Equivocate) ],
            robust_grace )
      in
      let net_a, get_a = mk () in
      let net_b, get_b = mk () in
      let a = Netsim.run ~max_rounds:2_000 ~plan ~grace net_a in
      let b = Netsim.run_reference ~max_rounds:2_000 ~plan ~grace net_b in
      a = b && get_a () = get_b () && (workload = 3 || a.Netsim.converged))

(* ---------- Fairness / liveness under adversarial schedules ---------- *)

let prop_async_election_live =
  QCheck.Test.make ~name:"async: robust election converges under any fair schedule"
    ~count:25
    QCheck.(pair (int_range 0 9_999) (int_range 1 12))
    (fun (seed, fairness) ->
      let ps = List.init 9 (fun i -> (i * 5) + 2) in
      let schedule = Schedule.async ~seed ~fairness in
      let s, leader = Election.run_robust ~rng:(rng seed) ~schedule ~max_rounds:5_000 ps in
      s.Netsim.converged
      && (match leader with Some l -> List.mem l ps | None -> false))

let prop_async_bfs_live =
  QCheck.Test.make ~name:"async: robust bfs-echo collects the exact component" ~count:20
    QCheck.(pair (int_range 0 9_999) (int_range 1 12))
    (fun (seed, fairness) ->
      let g = Gen.random_h_graph ~rng:(rng (seed + 3)) 14 2 in
      let expected = List.sort Int.compare (Graph.nodes g) in
      let schedule = Schedule.async ~seed ~fairness in
      let s, collected = Bfs_echo.run_robust ~schedule ~max_rounds:5_000 ~graph:g ~root:0 () in
      s.Netsim.converged && collected = Some expected)

(* ---------- Quiescence-time monotonicity in F ---------- *)

(* On a tree the classic flood/echo sends a fixed message sequence per
   directed link regardless of delivery order (each node has a unique
   discoverer), so with coupled delays the whole event schedule — and
   hence time-to-quiescence — is monotone in the fairness bound. *)
let random_tree seed n =
  let st = rng seed in
  let g = Graph.create () in
  Graph.add_node g 0;
  for i = 1 to n - 1 do
    Graph.add_node g i;
    ignore (Graph.add_edge g i (Random.State.int st i))
  done;
  g

let quiescence_time ~g ~schedule =
  let net = Netsim.create () in
  let get = Bfs_echo.install net ~graph:g ~root:0 in
  let s = Netsim.run ~max_rounds:5_000 ~schedule net in
  Alcotest.(check bool) "tree echo converged" true s.Netsim.converged;
  Alcotest.(check bool) "tree echo complete" true (get () <> None);
  s.Netsim.rounds

let prop_async_monotone_in_fairness =
  QCheck.Test.make ~name:"async: tree echo quiescence time monotone in F" ~count:15
    QCheck.(pair (int_range 0 9_999) (int_range 4 24))
    (fun (seed, n) ->
      let g = random_tree (seed + 7) n in
      let time f = quiescence_time ~g ~schedule:(Schedule.async ~seed ~fairness:f) in
      let times = List.map time [ 1; 2; 4; 8; 16 ] in
      let sync_time = quiescence_time ~g ~schedule:Schedule.sync in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      List.hd times = sync_time && non_decreasing times)

(* ---------- Determinism of the async engine ---------- *)

let test_async_replay_deterministic () =
  let go () =
    let g = Gen.random_h_graph ~rng:(rng 5) 18 2 in
    let schedule = Schedule.async ~seed:31 ~fairness:6 in
    let plan = Fault_plan.make ~seed:31 ~drop:0.1 ~duplicate:0.1 () in
    Bfs_echo.run_robust ~plan ~schedule ~max_rounds:5_000 ~graph:g ~root:0 ()
  in
  let a, ra = go () in
  let b, rb = go () in
  Alcotest.(check bool) "identical stats" true (a = b);
  Alcotest.(check bool) "identical result" true (ra = rb);
  Alcotest.(check bool) "converged" true a.Netsim.converged

(* ---------- Crashed-destination quiescence regression ---------- *)

(* A message dropped at delivery because its destination has crashed
   must count as activity, exactly like a gauntlet drop: otherwise the
   step looks idle, the grace window closes one step early, and a
   retry-based sender can be cut off while still working. Pinned trace:
   one send at time 0 into a node crashed at time 1 quiesces at
   3 + grace on both engines. *)
let test_crashed_delivery_keeps_grace_open () =
  let mk () =
    let net = Netsim.create () in
    Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
    Netsim.add_node net 2 (fun ~now:_ ~inbox:_ -> []);
    net
  in
  let plan = Fault_plan.make ~crashes:[ (2, 1) ] () in
  List.iter
    (fun grace ->
      let a = Netsim.run ~plan ~grace (mk ()) in
      let b = Netsim.run_reference ~plan ~grace (mk ()) in
      Alcotest.(check bool) (Printf.sprintf "engines agree (grace %d)" grace) true (a = b);
      Alcotest.(check int)
        (Printf.sprintf "crash drop holds the window open (grace %d)" grace)
        (3 + grace) a.Netsim.rounds;
      Alcotest.(check int) (Printf.sprintf "dropped (grace %d)" grace) 1 a.Netsim.dropped;
      Alcotest.(check bool) (Printf.sprintf "converged (grace %d)" grace) true
        a.Netsim.converged)
    [ 0; 1; 2 ]

(* ---------- Async lossy runs pinned across commits ---------- *)

(* The churn-lossy benchmark's network: 5% loss, 2% duplication,
   adversarial delays within fairness 4. The expected strings and MD5s
   below were computed on the simulator that stepped every node at
   every wake-up, so they hold the quiet-node skipping to the same
   outcomes; any change to which handler acts when, to the RNG draw
   order or to the counters shows up here. *)
let lossy seed =
  ( Fault_plan.make ~seed ~drop:0.05 ~duplicate:0.02 (),
    Schedule.async ~seed:(seed + 1) ~fairness:4 )

let show_stats (s : Netsim.stats) =
  Printf.sprintf "r=%d m=%d w=%d c=%b d=%d u=%d l=%d t=%d [%s]" s.rounds s.messages s.words
    s.converged s.dropped s.duplicated s.delayed s.tampered
    (String.concat " "
       (List.map
          (fun (k, (c : Netsim.type_counts)) ->
            Printf.sprintf "%s:%d/%d/%d/%d" k c.delivered c.dropped c.duplicated c.tampered)
          s.per_type))

let show_repair (s : Dist_repair.stats) =
  Printf.sprintf "r=%d m=%d w=%d c=%b d=%d u=%d l=%d t=%d e=%d" s.rounds s.messages s.words
    s.converged s.dropped s.duplicated s.delayed s.tampered s.escalations

let md5 s = Digest.to_hex (Digest.string s)

let md5_ids ids = md5 (String.concat "," (List.map string_of_int (Option.value ~default:[] ids)))

let md5_edges es = md5 (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) es))

let pinned_runs seed =
  let plan, schedule = lossy seed in
  let g = Gen.random_h_graph ~rng:(rng seed) 60 2 in
  let bs, collected = Bfs_echo.run_robust ~plan ~schedule ~graph:g ~root:0 () in
  let members = List.init 40 (fun i -> (3 * i) + seed) in
  let cs, edges =
    Cloud_build.run_robust ~rng:(rng (seed + 7)) ~plan ~schedule ~d:2
      ~leader:(List.nth members 5) ~members ()
  in
  let union = Gen.random_h_graph ~rng:(rng (seed + 11)) 80 2 in
  let scope = Scope.create () in
  let rs =
    Dist_repair.combine ~rng:(rng (seed + 13)) ~obs:scope ~plan ~schedule ~d:2 ~union
      ~initiator:0 ()
  in
  [
    show_stats bs;
    md5_ids collected;
    show_stats cs;
    md5_edges edges;
    show_repair rs;
    md5 (Scope.metrics_string scope);
    md5 (Scope.trace_string scope);
  ]
  @
  (* The defended branches under lying nodes: quorum-checked echo with
     phantom-padding children, mutual-edge build with a forging leader. *)
  let byz =
    Fault_plan.make ~seed ~drop:0.05 ~duplicate:0.02
      ~byzantine:[ (3, Fault_plan.Equivocate); (7, Fault_plan.Corrupt_payload) ]
      ()
  in
  let qs, qcollected =
    Bfs_echo.run_robust ~plan:byz ~schedule ~defense:quorum ~max_rounds:5_000 ~graph:g
      ~root:0 ()
  in
  let ms, medges =
    Cloud_build.run_robust ~rng:(rng (seed + 7)) ~plan:byz ~schedule
      ~defense:(Defense.make ~edge_mutual:true ()) ~max_rounds:5_000 ~d:2 ~leader:3
      ~members:(List.init 30 (fun i -> i)) ()
  in
  [
    show_stats qs;
    md5_ids qcollected;
    show_stats ms;
    md5_edges medges;
  ]

let pinned_expected =
  [
    ( 1,
      [
        "r=54 m=1017 w=1721 c=true d=48 u=23 l=0 t=0 [accept:118/4/4/0 ack:115/5/3/0 explore:381/23/4/0 reject:261/11/9/0 subtree:117/5/3/0]";
        "2ddf0febc0c7999f32fbb6bcf06f4358";
        "r=26 m=516 w=1083 c=true d=28 u=10 l=0 t=0 [ack:74/6/2/0 edges:78/4/1/0 hello:346/18/7/0]";
        "54cbaf7dbc0d647f41a766e2a5a37027";
        "r=95 m=2419 w=4585 c=true d=139 u=50 l=0 t=0 e=0";
        "1e83d0a424e2d25f5d54f43852511730";
        "f4f4384f9ab0b5cec4da36fa8dd45023";
        "r=5000 m=3724 w=12134 c=false d=202 u=61 l=0 t=29 [accept:118/4/4/0 ack:58/1/0/0 explore:381/23/4/0 reject:261/11/9/0 subtree:1740/74/28/29 vote:1048/89/16/0]";
        "2ddf0febc0c7999f32fbb6bcf06f4358";
        "r=27 m=403 w=973 c=true d=268 u=7 l=0 t=64 [ack:60/4/2/0 edges:62/3/1/64 hello:266/261/4/0]";
        "7a3994f5dc66f3f20cda932fcb0fb7ac";
      ] );
    ( 2,
      [
        "r=58 m=1035 w=1706 c=true d=44 u=12 l=0 t=0 [accept:126/8/3/0 ack:111/6/0/0 explore:393/16/6/0 reject:256/9/3/0 subtree:117/5/0/0]";
        "2ddf0febc0c7999f32fbb6bcf06f4358";
        "r=25 m=517 w=1032 c=true d=20 u=9 l=0 t=0 [ack:68/7/0/0 edges:75/1/1/0 hello:363/12/8/0]";
        "e6070504a97294ee18aebeaf0e7e4846";
        "r=90 m=2379 w=4397 c=true d=123 u=55 l=0 t=0 e=0";
        "b9c8e92e9a08cb2b3dab2f9904e3c2d3";
        "3b89666b85f8a62282cc6591f303d6bf";
        "r=5000 m=3616 w=5654 c=false d=179 u=61 l=0 t=28 [accept:127/7/3/0 ack:59/1/1/0 explore:394/15/6/0 reject:255/11/3/0 subtree:1728/83/32/28 vote:959/62/16/0]";
        "2ddf0febc0c7999f32fbb6bcf06f4358";
        "r=27 m=397 w=917 c=true d=258 u=9 l=0 t=60 [ack:56/4/1/0 edges:59/1/0/60 hello:278/253/8/0]";
        "c3db862d94da1734a2381138685bbafa";
      ] );
    ( 3,
      [
        "r=57 m=1050 w=1789 c=true d=51 u=20 l=0 t=0 [accept:115/8/2/0 ack:116/9/3/0 explore:396/19/6/0 reject:270/11/6/0 subtree:122/4/3/0]";
        "2ddf0febc0c7999f32fbb6bcf06f4358";
        "r=30 m=490 w=990 c=true d=23 u=6 l=0 t=0 [ack:71/4/0/0 edges:75/4/1/0 hello:327/15/5/0]";
        "d318452745ff41958581d56d0c114c67";
        "r=90 m=2468 w=4589 c=true d=135 u=50 l=0 t=0 e=0";
        "90a726ff43e57e5b4d3f2bce51e1dc36";
        "f5cd147089db38e1543cf7e68353e55f";
        "r=5000 m=5191 w=11916 c=false d=283 u=122 l=0 t=27 [accept:115/8/2/0 ack:58/2/1/0 explore:397/19/7/0 reject:271/10/5/0 subtree:3174/167/80/27 vote:1036/77/27/0]";
        "2ddf0febc0c7999f32fbb6bcf06f4358";
        "r=23 m=391 w=934 c=true d=235 u=6 l=0 t=63 [ack:56/4/0/0 edges:60/3/0/63 hello:262/228/6/0]";
        "c9a350fb9e641ddc657d2b3f49ac1fef";
      ] );
  ]

let test_async_pinned () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        (List.assoc seed pinned_expected) (pinned_runs seed))
    [ 1; 2; 3 ]

let suite =
  [
    ( "schedule",
      [
        Alcotest.test_case "basics and validation" `Quick test_schedule_basics;
        Alcotest.test_case "fairness 1 is sync timing" `Quick
          test_schedule_fairness_one_is_sync_timing;
        QCheck_alcotest.to_alcotest prop_schedule_delay_bounds;
        QCheck_alcotest.to_alcotest prop_schedule_delay_coupled;
      ] );
    ( "event-queue",
      [
        Alcotest.test_case "orders by time then seq" `Quick
          test_event_queue_orders_by_time_then_seq;
        Alcotest.test_case "pop_due splits at now" `Quick test_event_queue_pop_due;
        QCheck_alcotest.to_alcotest prop_event_queue_sorts;
      ] );
    ( "conformance",
      [
        Alcotest.test_case "election matches the oracle" `Quick test_conformance_election;
        Alcotest.test_case "bfs-echo matches the oracle" `Quick test_conformance_bfs;
        Alcotest.test_case "full fault gauntlet matches the oracle" `Quick
          test_conformance_under_faults;
        Alcotest.test_case "quorum settle left pending matches the oracle" `Quick
          test_conformance_pending_settle;
        QCheck_alcotest.to_alcotest prop_conformance;
      ] );
    ( "async-schedules",
      [
        QCheck_alcotest.to_alcotest prop_async_election_live;
        QCheck_alcotest.to_alcotest prop_async_bfs_live;
        QCheck_alcotest.to_alcotest prop_async_monotone_in_fairness;
        Alcotest.test_case "async replay is deterministic" `Quick
          test_async_replay_deterministic;
        Alcotest.test_case "crashed delivery keeps the grace window open" `Quick
          test_crashed_delivery_keeps_grace_open;
        Alcotest.test_case "lossy async runs pinned across commits" `Quick test_async_pinned;
      ] );
  ]
