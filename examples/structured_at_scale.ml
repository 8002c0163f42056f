(* Query 2 at corpus scale, entirely inside the engine: the
   structural predicate (articles authored by "Doe") is evaluated
   with stack-based structural joins over the tag index, the IR part
   with TermJoin, and the two are combined with a containment
   semi-join — no in-memory document trees.

     dune exec examples/structured_at_scale.exe
*)

let () =
  let cfg =
    {
      Workload.Corpus.default with
      articles = 500;
      seed = 99;
      planted_terms = [ ("distributed", 1200); ("consensus", 700) ];
    }
  in
  let options = { Store.Db.default_options with keep_trees = false } in
  let db = Store.Db.load ~options (Workload.Corpus.generate cfg) in
  let ctx = Access.Ctx.of_db db in
  Format.printf "corpus: %a@.@." Store.Db.pp_stats (Store.Db.stats db);

  (* the structural part of the paper's Query 2 as a pattern tree *)
  let pattern =
    let open Core.Pattern in
    make
      (pnode ~pred:(Tag "article") 1
         [
           pnode ~axis:Descendant ~pred:(Tag "author") 2
             [ pnode ~pred:(And (Tag "sname", Content_eq "Doe")) 3 [] ];
         ])
      []
  in
  let started = Unix.gettimeofday () in
  let articles = Access.Pattern_exec.matches ctx pattern ~var:1 in
  Format.printf "articles with author \"Doe\": %d of %d (%.1f ms)@."
    (List.length articles) cfg.Workload.Corpus.articles
    ((Unix.gettimeofday () -. started) *. 1000.);

  (* score components with TermJoin, restricted to those articles *)
  let started = Unix.gettimeofday () in
  let scored, _steps =
    Exec.Par.scored ~anchors:articles ~limits:Core.Governor.unlimited
      ~access:(Access.Pattern_exec.Term_join Access.Term_join.Plain)
      ~parallelism:1 ctx
      ~terms:[ "distributed"; "consensus" ]
  in
  Format.printf "scored components inside them: %d (%.1f ms)@.@."
    (List.length scored)
    ((Unix.gettimeofday () -. started) *. 1000.);

  (* rank with the bounded top-k accumulator (Sec. 5.3) *)
  let emitter ~emit () =
    List.iter emit scored;
    List.length scored
  in
  let top = Access.Ranked.top_k 8 emitter in
  Format.printf "top components (tag, doc, score):@.";
  List.iter
    (fun (n : Access.Scored_node.t) ->
      let tag =
        Option.value ~default:"?" (Store.Db.tag_of db ~doc:n.doc ~start:n.start)
      in
      Format.printf "  %-14s doc=%-4d start=%-6d score=%.1f@." tag n.doc
        n.start n.score)
    top
