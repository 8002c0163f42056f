(* Access-method dispatch and intra-query parallel execution.

   Every caller that runs an access method comes through here, so the
   method table ([emit_nodes], [emit_phrase]), the rule for which
   methods partition, and the budget policy exist once.

   A partitioned query is split into document-range chunks
   ({!Partition.plan}), each chunk runs a range-restricted instance of
   the access method on its own domain against the shared immutable
   snapshot, and the per-chunk results are merged deterministically:

   - boolean/structural results (TermJoin, GenMeet, PhraseFinder) come
     back per chunk in document order over disjoint ascending ranges,
     so the merge is concatenation in chunk order — byte-identical to
     the sequential document-order output;
   - ranked top-k chunks each return their local top-k under the total
     order (score desc, doc asc); the merge re-sorts the union under
     the same order and keeps k. Cross-chunk max-score pruning shares
     the best k-th score seen by any chunk through an atomic
     ([Ranked.top_k_docs ~shared_threshold]), which only ever prunes
     documents strictly below the final cutoff — the merged result is
     exactly the sequential one, ties included.

   Resource limits come in as an optional {!Core.Governor.shared}
   budget: every chunk attaches a private governor, ticks it for the
   work it does, and the first chunk to breach trips the budget once
   for the whole query. Tracing fans out the same way — each chunk
   records into a private tracer whose finished tree is grafted, in
   chunk order, under one "Parallel" span of the caller's tracer. *)

let chunks_per_domain = 4
(* more chunks than domains so the shared work index load-balances
   skewed ranges; each extra chunk costs one cursor re-seek *)

let resolve_ranges ?ranges ~parallelism ctx ~terms =
  match ranges with
  | Some (_ :: _ as r) -> r
  | Some [] | None ->
    Partition.plan ctx ~terms ~chunks:(parallelism * chunks_per_domain)

(* Fan [body] out over [ranges], then [merge] the per-chunk values in
   chunk order. [merge] also returns the output cardinality for the
   "Parallel" trace span. *)
let fan_out ~trace ~shared ~parallelism ~method_ ~ranges ~body ~merge =
  let rs = Array.of_list ranges in
  let n = Array.length rs in
  let slots = Array.make n None in
  let span_trees = Array.make n None in
  let traced = Core.Trace.enabled trace in
  if traced then begin
    Core.Trace.enter trace "Parallel";
    Core.Trace.annotate trace "method" method_;
    Core.Trace.annotate trace "partitions" (string_of_int n);
    Core.Trace.annotate trace "domains" (string_of_int parallelism)
  end;
  let task i =
    let lo, hi = rs.(i) in
    let gov = Option.map Core.Governor.attach shared in
    let tr = if traced then Core.Trace.make () else Core.Trace.disabled in
    let res =
      match
        Core.Trace.enter tr "Partition";
        Core.Trace.annotate tr "lo" (string_of_int lo);
        Core.Trace.annotate tr "hi"
          (if hi = max_int then "end" else string_of_int hi);
        let v = body ~gov ~trace:tr (lo, hi) in
        (match gov with Some g -> Core.Governor.settle g | None -> ());
        Core.Trace.leave tr;
        v
      with
      | v -> Ok v
      | exception e ->
        Core.Trace.unwind tr;
        Error e
    in
    slots.(i) <- Some res;
    if traced then span_trees.(i) <- Core.Trace.root tr
  in
  Pool.run ~domains:parallelism ~n task;
  let fail e =
    if traced then Core.Trace.leave trace;
    raise e
  in
  (* a tripped shared budget outranks chunk-local failures: every
     breaching chunk carries the same violation, report it once *)
  (match Option.map Core.Governor.shared_violation shared with
  | Some (Some v) -> fail (Core.Governor.Resource_exhausted v)
  | Some None | None -> ());
  Array.iter
    (function Some (Error e) -> fail e | Some (Ok _) | None -> ())
    slots;
  let vals =
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      slots
  in
  let result, count = merge vals in
  if traced then begin
    Array.iter (Option.iter (Core.Trace.attach trace)) span_trees;
    Core.Trace.leave ~output:count trace
  end;
  result

(* ------------------------------------------------------------------ *)
(* Access-method dispatch: the one table from a method to its
   implementation. [doc_range] is passed only by the partitioned
   form, and only for methods whose [degree] can exceed 1; [within]
   scopes GenMeet to anchor subtrees and is ignored by the others. *)

let emit_nodes ?(trace = Core.Trace.disabled) ?mode ?weights ?within ?doc_range
    (access : Access.Pattern_exec.access) ctx ~terms ~emit =
  match access with
  | Term_join variant ->
    Access.Term_join.run ~trace ~variant ?mode ?weights ?doc_range ctx ~terms
      ~emit ()
  | Gen_meet { use_skips } ->
    Access.Gen_meet.run ~trace ?mode ?weights ?within ~use_skips ?doc_range ctx
      ~terms ~emit ()
  | Comp1 -> Access.Composite.comp1 ~trace ?mode ?weights ctx ~terms ~emit ()
  | Comp2 -> Access.Composite.comp2 ~trace ?mode ?weights ctx ~terms ~emit ()

let emit_phrase ?(trace = Core.Trace.disabled) ?doc_range ~comp3 ctx ~phrase
    ~emit =
  if comp3 then Access.Composite.comp3 ~trace ctx ~phrase ~emit ()
  else Access.Phrase_finder.run ~trace ?doc_range ctx ~phrase ~emit ()

let wire_name : Access.Pattern_exec.access -> string = function
  | Term_join Plain -> "termjoin"
  | Term_join Enhanced -> "enhanced"
  | Gen_meet _ -> "genmeet"
  | Comp1 -> "comp1"
  | Comp2 -> "comp2"

let run ?trace ?mode ?weights ?within access ctx ~terms ~emit =
  emit_nodes ?trace ?mode ?weights ?within access ctx ~terms ~emit

(* document order, like each [to_list]; a chunk ticks per node *)
let collect ?gov run =
  let acc = ref [] in
  let _ : int =
    run ~emit:(fun nd ->
        Option.iter Core.Governor.tick gov;
        acc := nd :: !acc)
  in
  List.sort Access.Scored_node.compare_pos !acc

(* The one chunk body every partitioned method shares. Per-chunk
   results are document-sorted over disjoint ascending ranges:
   concatenation in chunk order IS the global document order. Both
   merge rules live in Core.Merge, shared with the distributed
   coordinator so local and remote partitioning cannot diverge. *)
let partition ?(trace = Core.Trace.disabled) ~shared ?ranges ~parallelism
    ~method_ ctx ~terms run =
  fan_out ~trace ~shared ~parallelism ~method_
    ~ranges:(resolve_ranges ?ranges ~parallelism ctx ~terms)
    ~body:(fun ~gov ~trace doc_range -> collect ?gov (run ~trace ~doc_range))
    ~merge:Core.Merge.concat_in_order

let partitioned ?trace ?shared ?ranges ?mode ?weights ~parallelism access ctx
    ~terms =
  partition ?trace ~shared ?ranges ~parallelism
    ~method_:(Access.Pattern_exec.access_operator access) ctx ~terms
    (fun ~trace ~doc_range ->
      emit_nodes ~trace ?mode ?weights ~doc_range access ctx ~terms)

let term_join ?trace ?shared ?ranges ?(variant = Access.Term_join.Plain) ?mode
    ?weights ~parallelism ctx ~terms =
  partitioned ?trace ?shared ?ranges ?mode ?weights ~parallelism
    (Term_join variant) ctx ~terms

let phrase ?trace ?shared ?ranges ~parallelism ctx ~phrase =
  partition ?trace ~shared ?ranges ~parallelism ~method_:"PhraseFinder" ctx
    ~terms:phrase (fun ~trace ~doc_range ->
      emit_phrase ~trace ~doc_range ~comp3:false ctx ~phrase)

let top_k_docs ?(trace = Core.Trace.disabled) ?shared ?ranges ?weights ?theta
    ~parallelism ctx ~terms ~k =
  let ranges = resolve_ranges ?ranges ~parallelism ctx ~terms in
  (* [?theta] seeds the shared threshold with a cutoff already proven
     elsewhere (a distributed coordinator relaying other shards'
     published k-th-best): pruning against it stays exact because the
     seed is itself a monotone θ value, always ≤ the global cutoff *)
  let shared_threshold = Core.Merge.Theta.make ?seed:theta () in
  fan_out ~trace ~shared ~parallelism ~method_:"RankedTopK" ~ranges
    ~body:(fun ~gov ~trace (lo, hi) ->
      let docs =
        Access.Ranked.top_k_docs ~trace ?weights ~doc_range:(lo, hi)
          ~shared_threshold ctx ~terms ~k
      in
      (match gov with
      | Some g -> Core.Governor.tick_n g (List.length docs)
      | None -> ());
      docs)
    ~merge:(Core.Merge.merge_ranked ~k)

(* ------------------------------------------------------------------ *)
(* Budget policy. A sequential method pays for its output cardinality
   and samples the deadline once afterwards. A fan-out shares one
   budget; its chunks tick as they emit, so the cardinality is already
   accounted when the merge returns. *)

let governed limits f =
  let gov = Core.Governor.start limits in
  let results = f () in
  let n = List.length results in
  Core.Governor.tick_n gov n;
  Core.Governor.check_results gov n;
  Core.Governor.check_deadline gov;
  (results, Core.Governor.steps gov)

let governed_parallel limits f =
  let sh = Core.Governor.make_shared limits in
  let results = f sh in
  Core.Governor.shared_check_results sh (List.length results);
  Core.Governor.shared_check_deadline sh;
  (results, Core.Governor.shared_steps sh)

(* The composite baselines materialize candidate sets and have no
   range-restricted form; the anchor semi-join does not partition. *)
let degree ~anchored (access : Access.Pattern_exec.access) ~parallelism =
  match access with
  | (Term_join _ | Gen_meet _) when not anchored -> max 1 parallelism
  | Term_join _ | Gen_meet _ | Comp1 | Comp2 -> 1

let phrase_degree ~comp3 ~parallelism = if comp3 then 1 else max 1 parallelism

let scored ?(trace = Core.Trace.disabled) ?mode ?weights ?anchors ~limits
    ~access ~parallelism ctx ~terms =
  if degree ~anchored:(anchors <> None) access ~parallelism > 1 then
    governed_parallel limits (fun shared ->
        partitioned ~trace ~shared ?mode ?weights ~parallelism access ctx
          ~terms)
  else
    governed limits (fun () ->
        let run ?within () =
          collect (emit_nodes ~trace ?mode ?weights ?within access ctx ~terms)
        in
        match anchors with
        | None -> run ()
        | Some anchors ->
          Access.Pattern_exec.anchored anchors (fun ~within -> run ~within ()))

let scored_phrase ?(trace = Core.Trace.disabled) ~limits ~comp3 ~parallelism
    ctx ~phrase:words =
  if phrase_degree ~comp3 ~parallelism > 1 then
    governed_parallel limits (fun shared ->
        phrase ~trace ~shared ~parallelism ctx ~phrase:words)
  else
    governed limits (fun () ->
        collect (emit_phrase ~trace ~comp3 ctx ~phrase:words))

let ranked ?(trace = Core.Trace.disabled) ?theta ~limits ~parallelism ctx ~terms
    ~k =
  if parallelism > 1 then
    governed_parallel limits (fun shared ->
        top_k_docs ~trace ~shared ?theta ~parallelism ctx ~terms ~k)
  else
    governed limits (fun () ->
        (* a θ hint seeds the same shared threshold the parallel chunks
           use; pruning against it is exact under the monotone-θ
           invariant (Core.Merge) *)
        let shared_threshold =
          Option.map (fun seed -> Core.Merge.Theta.make ~seed ()) theta
        in
        Access.Ranked.top_k_docs ~trace ?shared_threshold ctx ~terms ~k)
