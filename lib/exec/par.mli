(** Access-method dispatch and intra-query parallel execution.

    The Sec. 6.1 access methods return the same scored-node sets and
    differ only in cost; which method runs, in what form and under
    what budget is decided here, once ({!scored}, {!scored_phrase},
    {!ranked}).

    The partitioned form splits the doc-id space ({!Partition.plan},
    or the caller's explicit [ranges]), fans the chunks out across up
    to [parallelism] domains ({!Pool}), runs a range-restricted
    instance of the sequential method per chunk, and merges
    deterministically: results are identical — cardinality, order,
    scores, tie-breaks — to the sequential method's, for any
    [parallelism] and any covering disjoint ascending [ranges]. Comp1,
    Comp2, Comp3 and anchored search have no partitioned form.

    [shared] threads one {!Core.Governor.shared} budget through every
    chunk: steps accumulate across domains and the first breach trips
    the whole query exactly once. [trace] records one ["Partition"]
    span subtree per chunk (in chunk order) under a single
    ["Parallel"] span, so EXPLAIN/ANALYZE shows the fan-out.

    [ranges] is for tests and tooling; production callers let the
    planner choose skip-block-aligned chunks. *)

val wire_name : Access.Pattern_exec.access -> string
(** The protocol's method name ([genmeet] for either skip setting). *)

val degree :
  anchored:bool -> Access.Pattern_exec.access -> parallelism:int -> int
(** The number of domains {!scored} fans out over. *)

val phrase_degree : comp3:bool -> parallelism:int -> int
(** The number of domains {!scored_phrase} fans out over. *)

val scored :
  ?trace:Core.Trace.t ->
  ?mode:Access.Counter_scoring.mode ->
  ?weights:float array ->
  ?anchors:Store.Tag_index.item list ->
  limits:Core.Governor.limits ->
  access:Access.Pattern_exec.access ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  Access.Scored_node.t list * int
(** [access] run exactly as given: its nodes in document order and
    the governor steps they cost. A sequential run pays for its output
    cardinality and samples the deadline once; a fan-out shares one
    budget across its chunks. [anchors] restricts the answer as
    {!Access.Pattern_exec.anchored} does. *)

val scored_phrase :
  ?trace:Core.Trace.t ->
  limits:Core.Governor.limits ->
  comp3:bool ->
  parallelism:int ->
  Access.Ctx.t ->
  phrase:string list ->
  Access.Scored_node.t list * int
(** {!scored} for phrases: PhraseFinder, or the Comp3 baseline. *)

val ranked :
  ?trace:Core.Trace.t ->
  ?theta:float ->
  limits:Core.Governor.limits ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  k:int ->
  (int * float) list * int
(** Governed {!top_k_docs}; the sequential run seeds its pruning
    threshold with [theta] the same way. *)

val run :
  ?trace:Core.Trace.t ->
  ?mode:Access.Counter_scoring.mode ->
  ?weights:float array ->
  ?within:Access.Structural_join.item array ->
  Access.Pattern_exec.access ->
  Access.Ctx.t ->
  terms:string list ->
  emit:(Access.Scored_node.t -> unit) ->
  int
(** The sequential, ungoverned method, for measuring it; returns the
    emitted count. Only GenMeet uses [within]. *)

val term_join :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  ?variant:Access.Term_join.variant ->
  ?mode:Access.Counter_scoring.mode ->
  ?weights:float array ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  Access.Scored_node.t list
(** Parallel {!Access.Term_join.to_list}; document order. *)

val phrase :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  parallelism:int ->
  Access.Ctx.t ->
  phrase:string list ->
  Access.Scored_node.t list
(** Parallel {!Access.Phrase_finder.to_list}; document order. *)

val top_k_docs :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  ?weights:float array ->
  ?theta:float ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  k:int ->
  (int * float) list
(** Parallel {!Access.Ranked.top_k_docs} with cross-chunk shared
    max-score pruning; best score first, doc id breaking ties.
    [theta] seeds the shared threshold with a cutoff already proven by
    another backend (e.g. a remote shard's published k-th best); the
    result stays exact as long as the seed is a true monotone θ value
    (≤ the global cutoff). *)
