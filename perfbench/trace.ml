(* In-memory span store for the traced run. One span per engine call
   (repair or insertion) and one child span per call of a wrapped
   pricing-backend closure, kept in memory and written out as JSONL when
   the run ends. The engine is only ever seen through its public seams:
   the [Cost.backend] closures are wrapped here, nothing inside the
   library is instrumented. *)

module Cost = Xheal_core.Cost
module Detect = Xheal_fault.Detect

let now () = Monotonic_clock.now ()

let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

type span = { id : int; name : string; start : int64; stop : int64; parent : int; repair : int }

(* Counters of one wrapped backend closure. *)
type layer = {
  lname : string;
  mutable calls : int;
  mutable alloc_b : float;
  mutable messages : int;
  mutable rounds : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable escalations : int;
  mutable converged : int;
  mutable confirmed : int;  (** Detections that confirmed the death. *)
}

let layer lname =
  {
    lname;
    calls = 0;
    alloc_b = 0.0;
    messages = 0;
    rounds = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    escalations = 0;
    converged = 0;
    confirmed = 0;
  }

type t = {
  mutable spans : span list;  (** Newest first. *)
  mutable next_id : int;
  mutable current : int;  (** Id of the open engine-call span, -1 outside. *)
  mutable repair : int;  (** Index of the current operation. *)
  elect : layer;
  build : layer;
  combine : layer;
  detect : layer;
}

let create () =
  {
    spans = [];
    next_id = 0;
    current = -1;
    repair = -1;
    elect = layer "elect";
    build = layer "build";
    combine = layer "combine";
    detect = layer "detect";
  }

let layers t = [ t.elect; t.build; t.combine; t.detect ]

let span_name l = "distributed." ^ l.lname

let add t ~name ~start ~stop ~parent =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; start; stop; parent; repair = t.repair } :: t.spans

(* Runs one engine call as a top-level span; [op] is its operation index. *)
let engine_call t ~name ~op f =
  t.repair <- op;
  t.current <- t.next_id;
  t.next_id <- t.next_id + 1;
  let start = now () in
  let finish () =
    let stop = now () in
    t.spans <- { id = t.current; name; start; stop; parent = -1; repair = op } :: t.spans;
    t.current <- -1
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let note (l : layer) (m : Cost.measured) =
  l.messages <- l.messages + m.Cost.m_messages;
  l.rounds <- l.rounds + m.Cost.m_rounds;
  l.dropped <- l.dropped + m.Cost.m_dropped;
  l.duplicated <- l.duplicated + m.Cost.m_duplicated;
  l.delayed <- l.delayed + m.Cost.m_delayed;
  l.escalations <- l.escalations + m.Cost.m_escalations;
  if m.Cost.m_converged then l.converged <- l.converged + 1

let child t (l : layer) measured f =
  let a0 = Gc.allocated_bytes () in
  let start = now () in
  let r = f () in
  let stop = now () in
  l.alloc_b <- l.alloc_b +. (Gc.allocated_bytes () -. a0);
  l.calls <- l.calls + 1;
  note l (measured r);
  add t ~name:(span_name l) ~start ~stop ~parent:t.current;
  r

let wrap t (b : Cost.backend) =
  {
    Cost.run_elect =
      (fun ~plan ~schedule ~phase ~members ->
        child t t.elect fst (fun () -> b.Cost.run_elect ~plan ~schedule ~phase ~members));
    run_build =
      (fun ~plan ~schedule ~phase ~leader ~members ->
        child t t.build Fun.id (fun () ->
            b.Cost.run_build ~plan ~schedule ~phase ~leader ~members));
    run_combine =
      (fun ~plan ~schedule ~phase ~clouds ->
        child t t.combine Fun.id (fun () -> b.Cost.run_combine ~plan ~schedule ~phase ~clouds));
    run_detect =
      (fun ~plan ~schedule ~phase ~victim ~peers ~config ->
        let ((_, o) as r) =
          child t t.detect fst (fun () ->
              b.Cost.run_detect ~plan ~schedule ~phase ~victim ~peers ~config)
        in
        if o.Detect.detected then t.detect.confirmed <- t.detect.confirmed + 1;
        r);
  }

let backend_alloc_b t = List.fold_left (fun acc l -> acc +. l.alloc_b) 0.0 (layers t)

(* Busy time of the spans named [name], and of all top-level spans. *)
let busy t ~name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. seconds_between s.start s.stop else acc)
    0.0 t.spans

let top_level_s t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. seconds_between s.start s.stop else acc)
    0.0 t.spans

(* Spans as JSONL in start order, times in ns from the first start. *)
let export t path =
  let spans = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) t.spans in
  let base = match spans with [] -> 0L | s :: _ -> s.start in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"repair\":%d}\n"
        s.id s.name (Int64.sub s.start base) (Int64.sub s.stop base) s.parent s.repair)
    spans;
  close_out oc
