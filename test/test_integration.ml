(* End-to-end integration tests crossing every library: generate a
   corpus, load it, persist it, reopen it, and check that the whole
   stack — parser, store, indexes, access methods, query language,
   compiled plans — agrees with itself along every path. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let cfg =
  {
    Workload.Corpus.articles = 30;
    seed = 1234;
    chapters_per_article = 2;
    sections_per_chapter = 2;
    paragraphs_per_section = 3;
    words_per_paragraph = 18;
    vocabulary = 400;
    planted_terms = [ ("integalpha", 120); ("integbeta", 60) ];
    planted_phrases = [ ("integone", "integtwo", 25) ];
  }

let db_with_trees = lazy (Store.Db.load (Workload.Corpus.generate cfg))

(* ------------------------------------------------------------------ *)
(* XML roundtrip at corpus scale: print every generated document and
   parse it back *)

let test_corpus_xml_roundtrip () =
  Seq.iter
    (fun (name, root) ->
      let printed = Xmlkit.Printer.to_string root in
      match Xmlkit.Parser.parse_string printed with
      | Ok reparsed ->
        if not (Xmlkit.Tree.equal root reparsed) then
          Alcotest.failf "%s does not roundtrip" name
      | Error e ->
        Alcotest.failf "%s: parse error %a" name Xmlkit.Parser.pp_error e)
    (Workload.Corpus.generate cfg)

(* loading from reparsed files equals loading from generated trees *)
let test_load_from_serialized_equals_direct () =
  let direct = Lazy.force db_with_trees in
  let reparsed =
    Store.Db.load
      (Seq.map
         (fun (name, root) ->
           (name, Xmlkit.Parser.parse_string_exn (Xmlkit.Printer.to_string root)))
         (Workload.Corpus.generate cfg))
  in
  check bool_ "same stats" true (Store.Db.stats direct = Store.Db.stats reparsed);
  let run db =
    Access.Term_join.to_list (Access.Ctx.of_db db)
      ~terms:[ "integalpha"; "integbeta" ]
  in
  check bool_ "same scored results" true (run direct = run reparsed)

(* ------------------------------------------------------------------ *)
(* persistence round trip at corpus scale *)

let test_persisted_pipeline () =
  let db = Lazy.force db_with_trees in
  let path = Filename.temp_file "tix-integ" ".tix" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let reopened = Store.Db.open_file_exn path in
      let ctx1 = Access.Ctx.of_db db and ctx2 = Access.Ctx.of_db reopened in
      (* every access method agrees across the save/open boundary *)
      let terms = [ "integalpha"; "integbeta" ] in
      check bool_ "termjoin" true
        (Access.Term_join.to_list ctx1 ~terms
        = Access.Term_join.to_list ctx2 ~terms);
      check bool_ "termjoin complex" true
        (Access.Term_join.to_list ~mode:Access.Counter_scoring.Complex ctx1 ~terms
        = Access.Term_join.to_list ~mode:Access.Counter_scoring.Complex ctx2 ~terms);
      check bool_ "phrasefinder" true
        (Access.Phrase_finder.to_list ctx1 ~phrase:[ "integone"; "integtwo" ]
        = Access.Phrase_finder.to_list ctx2 ~phrase:[ "integone"; "integtwo" ]);
      (* and the compiled query path works on the reopened image *)
      let src =
        {|
        for $a in document("article-*.xml")//article/descendant-or-self::*
        score $a using ScoreFoo($a, {"integalpha"}, {"integbeta"})
        pick $a using PickFoo()
        return <r><score>{$a/@score}</score>{$a}</r>
        sortby(score)
        threshold $a/@score > 0 stop after 10
        |}
      in
      match
        ( Query.Compile.run_string db src,
          Query.Compile.run_string reopened src )
      with
      | Ok a, Ok b ->
        check bool_ "compiled agree" true (a = b);
        check int_ "ten results" 10 (List.length a)
      | Error m, _ | _, Error m -> Alcotest.failf "compile failed: %s" m)

(* ------------------------------------------------------------------ *)
(* the three evaluation paths agree: interpreter, compiled plan, and
   hand-composed access methods *)

let test_three_paths_agree () =
  let db = Lazy.force db_with_trees in
  let src =
    {|
    for $a in document("article-*.xml")//article[author/sname = "Doe"]/descendant-or-self::*
    score $a using ScoreFoo($a, {"integalpha"}, {"integbeta"})
    return <r><score>{$a/@score}</score>{$a}</r>
    sortby(score)
    threshold $a/@score > 0 stop after 15
    |}
  in
  (* 1. interpreter *)
  let interpreter_scores =
    match Query.Eval.run_string (Query.Eval.create db) src with
    | Ok results ->
      List.map
        (fun r ->
          match Xmlkit.Traverse.find_first "score" r with
          | Some s -> float_of_string (String.trim (Xmlkit.Tree.all_text s))
          | None -> Alcotest.fail "missing score")
        results
    | Error m -> Alcotest.failf "interpreter: %s" m
  in
  (* 2. compiled plan *)
  let compiled_scores =
    match Query.Compile.run_string db src with
    | Ok nodes -> List.map (fun (n : Access.Scored_node.t) -> n.score) nodes
    | Error m -> Alcotest.failf "compile: %s" m
  in
  (* 3. hand-composed: structural join + TermJoin + top-k *)
  let ctx = Access.Ctx.of_db db in
  let pattern =
    let open Core.Pattern in
    make
      (pnode ~pred:(Tag "article") 1
         [
           pnode ~axis:Core.Pattern.Descendant ~pred:(Tag "author") 2
             [ pnode ~pred:(And (Tag "sname", Content_eq "Doe")) 3 [] ];
         ])
      []
  in
  let scored =
    Exec.Par.scored
      ~anchors:(Access.Pattern_exec.matches ctx pattern ~var:1)
      ~weights:[| 0.8; 0.6 |] ~limits:Core.Governor.unlimited
      ~access:(Access.Pattern_exec.Term_join Access.Term_join.Plain)
      ~parallelism:1 ctx ~terms:[ "integalpha"; "integbeta" ]
    |> fst
    |> List.filter (fun (n : Access.Scored_node.t) -> n.score > 0.)
  in
  let manual_scores =
    List.map
      (fun (n : Access.Scored_node.t) -> n.score)
      (Access.Ranked.top_k 15 (fun ~emit () ->
           List.iter emit scored;
           List.length scored))
  in
  let close a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> abs_float (x -. y) < 1e-6) a b
  in
  check bool_ "interpreter = compiled" true
    (close interpreter_scores compiled_scores);
  check bool_ "compiled = hand-composed" true
    (close compiled_scores manual_scores)

(* ------------------------------------------------------------------ *)
(* algebra pipeline vs engine pipeline on one document *)

let test_algebra_vs_engine_on_document () =
  let db = Lazy.force db_with_trees in
  let ctx = Access.Ctx.of_db db in
  (* engine side: TermJoin scores for doc 0 *)
  let engine =
    List.filter
      (fun (n : Access.Scored_node.t) -> n.doc = 0)
      (Access.Term_join.to_list ctx ~terms:[ "integalpha" ])
  in
  (* algebra side: score every element of doc 0's tree with a
     single-term ScoreFoo at weight 1 *)
  let tree =
    match Store.Db.numbering db ~doc:0 with
    | Some num -> Core.Stree.of_numbered num ~doc:0
    | None -> Alcotest.fail "expected trees"
  in
  let scorer =
    Core.Scorers.score_foo ~primary_weight:1.0 ~primary:[ "integalpha" ]
      ~secondary:[] ()
  in
  let algebra =
    List.filter_map
      (fun (n : Core.Stree.t) ->
        let s = scorer.Core.Pattern.eval n in
        if s > 0. then
          match n.id with
          | Core.Stree.Stored { doc; start } -> Some ((doc, start), s)
          | Core.Stree.Synthetic _ -> None
        else None)
      (Core.Stree.self_or_descendants tree)
  in
  let engine_pairs =
    List.map
      (fun (n : Access.Scored_node.t) -> ((n.doc, n.start), n.score))
      engine
  in
  check bool_ "same scored elements" true (algebra = engine_pairs)

(* ------------------------------------------------------------------ *)
(* reviews join across generated collections *)

let test_review_similarity_join () =
  let docs =
    Seq.append
      (Workload.Corpus.generate cfg)
      (Workload.Corpus.generate_reviews cfg)
  in
  let options = { Store.Db.default_options with keep_trees = false } in
  let db = Store.Db.load ~options docs in
  let ctx = Access.Ctx.of_db db in
  let titles tag =
    match Store.Catalog.tag_id (Store.Db.catalog db) tag with
    | Some id ->
      Array.to_list (Store.Tag_index.nodes (Store.Db.tags db) ~tag:id)
      |> List.map (fun (i : Store.Tag_index.item) ->
             {
               Access.Scored_node.doc = i.doc;
               start = i.start;
               end_ = i.end_;
               level = i.level;
               tag = id;
               score = 1.;
             })
    | None -> []
  in
  let joined =
    Access.Score_merge.value_join
      ~condition:(Access.Score_merge.similarity_condition ctx ~min_sim:2.)
      (titles "article-title") (titles "title")
  in
  (* every article title matches at least its own review *)
  check bool_ "join non-trivial" true
    (List.length joined >= cfg.Workload.Corpus.articles / 2)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "integration"
    [
      ( "xml roundtrip",
        [
          tc "corpus serializes and reparses" `Quick test_corpus_xml_roundtrip;
          tc "load from files = load direct" `Quick
            test_load_from_serialized_equals_direct;
        ] );
      ("persistence", [ tc "full pipeline" `Quick test_persisted_pipeline ]);
      ( "agreement",
        [
          tc "interpreter = compiled = hand-composed" `Quick
            test_three_paths_agree;
          tc "algebra = engine per document" `Quick
            test_algebra_vs_engine_on_document;
        ] );
      ("join", [ tc "review similarity join" `Quick test_review_similarity_join ]);
    ]
