(* Planner oracle suite (cost-based access-method planning): over a
   grid of term frequencies × structural selectivities, the costed
   choice must (a) never be more than a small constant slower than
   the best measured access method, (b) agree with every other
   method on the answer set — skips on and off, parallelism 1 and 2,
   and across a 2-shard federation against the single-node oracle. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

module Json = Service.Json
module Protocol = Service.Protocol

(* ------------------------------------------------------------------ *)
(* Corpus: three planted frequency bands an order of magnitude apart,
   so the method crossovers the planner must navigate actually exist
   in the measured data. *)

let cfg =
  {
    Workload.Corpus.default with
    articles = 150;
    seed = 42;
    planted_terms =
      [
        ("plra", 20); ("plrb", 20);      (* rare *)
        ("plma", 400); ("plmb", 400);    (* mid *)
        ("plfa", 7000); ("plfb", 7000);  (* frequent *)
      ];
  }

(* trees stay retained (the default) so shard compaction keeps the
   interpreter path alive on every shard *)
let db = lazy (Store.Db.load (Workload.Corpus.generate cfg))
let ctx = lazy (Access.Ctx.of_db (Lazy.force db))

let workloads =
  [
    ("rare", [ "plra"; "plrb" ]);
    ("mid", [ "plma"; "plmb" ]);
    ("frequent", [ "plfa"; "plfb" ]);
    ("mixed", [ "plra"; "plfb" ]);
    ("single", [ "plfa" ]);
  ]

let snapshot_exn ?source d =
  match Service.Engine.of_db ?source d with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_db: %s" msg

let has_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Answer comparison *)

let key_score_list nodes =
  List.map
    (fun (n : Access.Scored_node.t) -> ((n.doc, n.start), n.score))
    (List.sort Access.Scored_node.compare_pos nodes)

let same_results name expected actual =
  let e = key_score_list expected and a = key_score_list actual in
  check int_ (name ^ ": node count") (List.length e) (List.length a);
  List.iter2
    (fun ((kd, ks), es) ((ad, astart), as_) ->
      check (Alcotest.pair int_ int_) (name ^ ": node") (kd, ks) (ad, astart);
      check (Alcotest.float 1e-6) (name ^ ": score") es as_)
    e a

(* ------------------------------------------------------------------ *)
(* Every access method the planner can pick, run through the dispatch
   entry exactly as named *)

let methods =
  [
    Access.Pattern_exec.Term_join Access.Term_join.Plain;
    Access.Pattern_exec.Term_join Access.Term_join.Enhanced;
    Access.Pattern_exec.Gen_meet { use_skips = true };
    Access.Pattern_exec.Gen_meet { use_skips = false };
    Access.Pattern_exec.Comp1;
    Access.Pattern_exec.Comp2;
  ]

let run_access ctx access ~terms =
  fst
    (Exec.Par.scored ~limits:Core.Governor.unlimited ~access ~parallelism:1 ctx
       ~terms)

(* one untimed warmup, then the median of three runs — the oracle is
   a measurement, so it gets the bench harness's noise discipline *)
let median3 f =
  ignore (f ());
  let time () =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let s = List.sort compare [ time (); time (); time () ] in
  List.nth s 1

(* ------------------------------------------------------------------ *)
(* Oracle: on every frequency band, all methods agree on the answer
   and the costed choice is within a small constant of the measured
   best.  The factor is deliberately loose (10x plus a 2 ms epsilon)
   — the claim is "never picks a catastrophic plan", not "always
   picks the single fastest". *)

let test_oracle_frequency_grid () =
  let ctx = Lazy.force ctx and db = Lazy.force db in
  let stats = Store.Db.collection_stats db in
  let index = Store.Db.index db in
  List.iter
    (fun (name, terms) ->
      let baseline = run_access ctx (List.hd methods) ~terms in
      check bool_ (name ^ ": non-empty") true (baseline <> []);
      List.iter
        (fun m ->
          same_results
            (name ^ "/" ^ Access.Pattern_exec.access_to_string m)
            baseline
            (run_access ctx m ~terms))
        (List.tl methods);
      let timed =
        List.map
          (fun m ->
            ( Access.Pattern_exec.access_to_string m,
              median3 (fun () -> run_access ctx m ~terms) ))
          methods
      in
      let best = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity timed in
      let d = Query.Planner.choose ~stats ~index ~terms () in
      let chosen_name = Access.Pattern_exec.access_to_string d.Query.Planner.access in
      let chosen =
        match List.assoc_opt chosen_name timed with
        | Some t -> t
        | None -> Alcotest.failf "%s: chose unknown method %s" name chosen_name
      in
      check bool_
        (Printf.sprintf "%s: chosen %s %.4fs within 10x of best %.4fs" name
           chosen_name chosen best)
        true
        (chosen <= (10. *. best) +. 0.002);
      (* the decision's cost table covers every candidate and the
         chosen cost is its minimum *)
      check bool_ (name ^ ": alternatives listed") true
        (List.length d.Query.Planner.alternatives >= 4);
      List.iter
        (fun (_, c) ->
          check bool_ (name ^ ": chosen cost minimal") true
            (d.Query.Planner.est_cost <= c))
        d.Query.Planner.alternatives)
    workloads

(* ------------------------------------------------------------------ *)
(* Engine identity: the auto method returns exactly the termjoin
   rows, at parallelism 1 and 2, on every band. *)

let test_auto_parallelism_identity () =
  let snap = snapshot_exn (Lazy.force db) in
  List.iter
    (fun (name, terms) ->
      let run p m =
        match
          Service.Engine.exec ~parallelism:p snap
            (Service.Engine.Search { terms; method_ = m; complex = false; anchor = None })
        with
        | Ok r -> r.Service.Engine.rows
        | Error e ->
          Alcotest.failf "%s: %s" name (Service.Engine.error_message e)
      in
      let base = run 1 Service.Engine.Termjoin in
      check bool_ (name ^ ": rows") true (base <> []);
      check bool_ (name ^ ": auto par=1") true (run 1 Service.Engine.Auto = base);
      check bool_ (name ^ ": auto par=2") true (run 2 Service.Engine.Auto = base);
      check bool_ (name ^ ": genmeet par=2") true
        (run 2 Service.Engine.Genmeet = base))
    workloads

(* ------------------------------------------------------------------ *)
(* Structural selectivity grid: anchors from whole-document (article)
   down to leaf paragraphs, crossed with the frequency bands.  The
   costed plan must score the identical element set as the static
   rule's plan, and carry its estimate into EXPLAIN. *)

let parse_exn src =
  match Query.Parser.parse src with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse error: %a" Query.Parser.pp_error e

let anchor_query anchor t1 t2 =
  Printf.sprintf
    {|
    for $a in document("*")//%s/descendant-or-self::*
    score $a using ScoreFoo($a, {"%s"}, {"%s"})
    return <r>{$a}</r>
    sortby(score)
    threshold $a/@score > 0
    |}
    anchor t1 t2

let anchors = [ "article"; "chapter"; "section"; "p" ]

let test_structural_grid () =
  let db = Lazy.force db in
  let stats = Store.Db.collection_stats db in
  let index = Store.Db.index db in
  let catalog = Store.Db.catalog db in
  List.iter
    (fun anchor ->
      let anchor_tag =
        match Store.Catalog.tag_id catalog anchor with
        | Some id -> id
        | None -> Alcotest.failf "anchor tag %s missing from catalog" anchor
      in
      List.iter
        (fun (wname, terms) ->
          match terms with
          | [ t1; t2 ] ->
            let what = anchor ^ "/" ^ wname in
            let q = parse_exn (anchor_query anchor t1 t2) in
            (match Query.Compile.compile q with
            | Error e -> Alcotest.failf "%s: compile: %s" what e
            | Ok plan ->
              let costed = Query.Compile.plan_with_stats db plan in
              check bool_ (what ^ ": estimate recorded") true
                (costed.Query.Compile.estimate <> None);
              check bool_ (what ^ ": explain costed") true
                (has_sub "(costed)" (Query.Compile.explain costed));
              same_results what
                (Query.Compile.execute db plan)
                (Query.Compile.execute db costed));
            (* an anchored choose must price the scoped gen-meet and
               still return the global cost minimum *)
            let d =
              Query.Planner.choose ~anchor_tag ~stats ~index ~terms ()
            in
            check bool_ (what ^ ": scoped gen-meet priced") true
              (List.mem_assoc "gen-meet" d.Query.Planner.alternatives
              || List.mem_assoc "gen-meet-noskip" d.Query.Planner.alternatives);
            List.iter
              (fun (_, c) ->
                check bool_ (what ^ ": anchored cost minimal") true
                  (d.Query.Planner.est_cost <= c))
              d.Query.Planner.alternatives
          | _ -> ())
        workloads)
    anchors

(* ------------------------------------------------------------------ *)
(* 2-shard federation: auto searches through the coordinator must be
   byte-identical to the single-node server, modulo the per-shard
   nondeterminism (timings, cache flags, step accounting) and the
   plan line — shard-local statistics legitimately cost differently,
   the rows must not. *)

let strip json =
  match json with
  | Json.Obj fields ->
    Json.Obj
      (List.filter
         (fun (name, _) ->
           name <> "timings" && name <> "cached" && name <> "steps_used"
           && name <> "plan")
         fields)
  | j -> j

let parse_req line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error e -> Alcotest.failf "bad request %s: %s" line e

let auto_requests =
  List.map
    (fun (_, terms) ->
      Printf.sprintf {|{"op":"search","terms":[%s],"method":"auto","k":10}|}
        (String.concat "," (List.map (Printf.sprintf "%S") terms)))
    workloads

let test_two_shard_federation () =
  let db = Lazy.force db in
  let docs = Store.Catalog.document_count (Store.Db.catalog db) in
  let ranges = Dist.Shard_map.ranges ~docs ~shards:2 in
  let parts =
    List.mapi
      (fun i (lo, hi) ->
        let tombstones = Array.init docs (fun d -> d < lo || d >= hi) in
        let shard_db = Store.Db.compact ~base:db ~delta:None ~tombstones in
        let snap =
          snapshot_exn ~source:(Printf.sprintf "shard-%d" i) shard_db
        in
        let scheduler = Service.Scheduler.create ~workers:1 snap in
        let server = Service.Server.start scheduler in
        ( {
            Dist.Shard_map.lo;
            hi;
            image = Printf.sprintf "shard-%d" i;
            replicas =
              [ { Dist.Shard_map.host = "127.0.0.1";
                  port = Service.Server.port server } ];
          },
          server, scheduler ))
      ranges
  in
  let map =
    match Dist.Shard_map.make (List.map (fun (s, _, _) -> s) parts) with
    | Ok m -> m
    | Error msg -> Alcotest.failf "manifest: %s" msg
  in
  let single_scheduler =
    Service.Scheduler.create ~workers:1 (snapshot_exn ~source:"single" db)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, server, scheduler) ->
          Service.Server.stop server;
          Service.Scheduler.shutdown scheduler)
        parts;
      Service.Scheduler.shutdown single_scheduler)
    (fun () ->
      let single = Service.Server.handle single_scheduler in
      let coord = Dist.Coordinator.create ~source:"test-planner" map in
      Fun.protect
        ~finally:(fun () -> Dist.Client.close (Dist.Coordinator.client coord))
        (fun () ->
          List.iter
            (fun line ->
              let req = parse_req line in
              let expected = strip (single req) in
              (match Json.member "ok" expected with
              | Some (Json.Bool true) -> ()
              | _ -> Alcotest.failf "oracle failed on %s" line);
              let got = strip (Dist.Coordinator.handle coord req) in
              check string_ line
                (Json.to_string expected)
                (Json.to_string got))
            auto_requests))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "planner"
    [
      ( "oracle",
        [
          Alcotest.test_case "frequency grid" `Quick test_oracle_frequency_grid;
          Alcotest.test_case "auto parallelism identity" `Quick
            test_auto_parallelism_identity;
          Alcotest.test_case "structural grid" `Quick test_structural_grid;
          Alcotest.test_case "2-shard federation" `Quick
            test_two_shard_federation;
        ] );
    ]
