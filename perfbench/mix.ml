(* Inputs: the base corpus, the read-key space of each workload and
   the writer's document stream, all drawn from lib/workload. The
   corpus and the key spaces are fixed; the key draws and the
   writer's documents are a pure function of the seed. *)

let articles = 1000

(* The paper's planted frequency grid (Tables 1-3), the Table 5 pool
   phrases scaled by 1/10, as in bench/main.ml. *)
let grid = [ 20; 100; 200; 300; 500; 1000; 2000; 3000; 5500; 7000; 10000 ]
let qa f = Printf.sprintf "qa%d" f
let qb f = Printf.sprintf "qb%d" f
let pool_term f = Printf.sprintf "pool%d" f

let table5_rows =
  [
    (121076, 44930, 27991); (121076, 79677, 462); (107269, 146477, 1219);
    (107269, 79677, 1212); (98405, 146477, 877); (121076, 146477, 1189);
    (90482, 68801, 116); (121076, 45988, 34); (121076, 107269, 320);
    (98405, 28044, 455); (146477, 68801, 1372); (121076, 68801, 249);
    (98405, 107269, 17);
  ]

let t5_scale = 10

(* The database is the same for every seed; the seed drives the
   traffic. *)
let corpus_config =
  let tj = List.concat_map (fun f -> [ (qa f, f); (qb f, f) ]) grid in
  let phrases =
    List.map
      (fun (f1, f2, size) -> (pool_term f1, pool_term f2, max 1 (size / t5_scale)))
      table5_rows
  in
  let adj term =
    List.fold_left
      (fun acc (t1, t2, r) ->
        acc + (if t1 = term then r else 0) + if t2 = term then r else 0)
      0 phrases
  in
  let pool =
    List.sort_uniq compare
      (List.concat_map (fun (f1, f2, _) -> [ f1; f2 ]) table5_rows)
    |> List.map (fun f ->
           let term = pool_term f in
           (term, max 0 ((f / t5_scale) - adj term)))
  in
  {
    Workload.Corpus.default with
    articles;
    seed = 20030609;
    planted_terms = tj @ pool;
    planted_phrases = phrases;
  }

(* Planted occurrences of a term (exact: planted terms never occur in
   the background vocabulary). *)
let planted_freq term =
  let n = String.length term in
  let num p = int_of_string (String.sub term p (n - p)) in
  if n > 2 && (String.sub term 0 2 = "qa" || String.sub term 0 2 = "qb") then num 2
  else if n > 4 && String.sub term 0 4 = "pool" then num 4 / t5_scale
  else 0

(* ------------------------------------------------------------------ *)
(* Read keys *)

type key = {
  req : Service.Engine.request;
  k : int option;
  parallelism : int option;
  family : string;
  terms : string list;  (** the request's index terms *)
  occ : int;  (** planted posting occurrences of [terms] *)
}

(* The eight families the read mix covers. A key space takes its
   families in turn, so every family has the same share of the keys
   at every Zipf rank. No trace of user traffic says how often
   each is sent; equal shares are a choice. *)
let families =
  [| "auto"; "termjoin"; "termjoin_complex"; "enhanced"; "genmeet"; "phrase"; "ranked";
     "query" |]

let grid_a = Array.of_list grid
let table5_a = Array.of_list table5_rows

(* Term frequencies are Zipf-skewed (exponent 1.5) over the grid, rare
   terms most often; every frequency up to 10 000 still occurs. The
   exponent is a choice, not a measurement: with every grid frequency
   equally likely, a 2-core host completes too few reads in a run to
   support a p99. *)
let grid_zipf = Workload.Zipf.create ~exponent:1.5 (Array.length grid_a)

(* The key space is the same for every seed, as the corpus is; the
   seed drives only which keys are drawn (see [draws]). *)
let key_space_seed = 0x71c5

(* A query of the paper's Query-1/2 shape over [terms]. *)
let query_text st terms =
  let tags = [| "article"; "chapter"; "section" |] in
  let tag = tags.(Random.State.int st 3) in
  let pred =
    if Random.State.int st 3 = 0 then
      Printf.sprintf "[author/sname = %S]"
        Workload.Corpus.author_surnames.(Random.State.int st 4)
    else ""
  in
  let primary, secondary =
    match terms with
    | [ a; b; c ] -> ([ a; b ], [ c ])
    | t :: rest -> ([ t ], rest)
    | [] -> ([], [])
  in
  let set l = "{" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "}" in
  let pick = if Random.State.bool st then "pick $a using PickFoo()\n" else "" in
  let threshold =
    if Random.State.bool st then
      Printf.sprintf "threshold $a/@score > %d stop after %d\n"
        (Random.State.int st 2)
        (1 + Random.State.int st 10)
    else ""
  in
  Printf.sprintf
    "for $a in document(\"article-*.xml\")//%s%s/descendant-or-self::*\n\
     score $a using ScoreFoo($a, %s, %s)\n\
     %sreturn <result><score>{$a/@score}</score>{$a}</result>\n\
     sortby(score)\n\
     %s"
    tag pred (set primary) (set secondary) pick threshold

(* One key of [family]. A quarter of the searches carry a third
   term; [k] is uniform from 5 to 50. *)
let make_key st family =
  let grid_term name = name grid_a.(Workload.Zipf.sample grid_zipf st) in
  let terms3 () =
    let t = [ grid_term qa; grid_term qb ] in
    List.sort_uniq compare (if Random.State.int st 4 = 0 then t @ [ grid_term qa ] else t)
  in
  let k = Some (5 + Random.State.int st 46) in
  let search method_ complex =
    let terms = terms3 () in
    (Service.Engine.Search { terms; method_; complex; anchor = None }, terms)
  in
  let req, terms =
    match family with
    | "auto" -> search Service.Engine.Auto (Random.State.bool st)
    | "termjoin" -> search Service.Engine.Termjoin false
    | "termjoin_complex" -> search Service.Engine.Termjoin true
    | "enhanced" -> search Service.Engine.Enhanced (Random.State.bool st)
    | "genmeet" -> search Service.Engine.Genmeet (Random.State.bool st)
    | "phrase" ->
      let f1, f2, _ = table5_a.(Random.State.int st (Array.length table5_a)) in
      let terms = [ pool_term f1; pool_term f2 ] in
      (Service.Engine.Phrase { phrase = String.concat " " terms; comp3 = false }, terms)
    | "ranked" ->
      let terms = [ grid_term qa; grid_term qb ] in
      (Service.Engine.Ranked { terms }, terms)
    | _ ->
      let terms = terms3 () in
      (Service.Engine.Query { q = query_text st terms; mode = `Auto }, terms)
  in
  let occ = List.fold_left (fun acc t -> acc + planted_freq t) 0 terms in
  { req; k; parallelism = None; family; terms; occ }

let identity key =
  Service.Engine.canonical_key key.req
  ^ match key.k with Some k -> "|k" ^ string_of_int k | None -> ""

(* The key space: [n] distinct keys cycling through [families].
   [compilable] filters out query texts the engine would reject
   (images carry no trees to interpret from). With [~parallel:true]
   the frequent-term third of the keys (by planted occurrences) asks
   for ["parallelism":2]. Phrases have only 13 pairs times 46 values
   of [k], so a key space holds at most 8 * 598 keys. *)
let keys ~n ~parallel ~compilable () =
  let st = Random.State.make [| key_space_seed |] in
  let seen = Hashtbl.create n in
  let rec draw family tries =
    if tries = 0 then failwith ("key space: too few distinct " ^ family ^ " keys");
    let key = make_key st family in
    if (not (compilable key)) || Hashtbl.mem seen (identity key) then draw family (tries - 1)
    else begin
      Hashtbl.replace seen (identity key) ();
      key
    end
  in
  let keys = Array.init n (fun i -> draw families.(i mod Array.length families) 1000) in
  if parallel then begin
    let occs = Array.map (fun k -> k.occ) keys in
    Array.sort compare occs;
    let cut = occs.(2 * Array.length occs / 3) in
    Array.map (fun k -> if k.occ >= cut then { k with parallelism = Some 2 } else k) keys
  end
  else keys

(* Zipf-skewed key draws: rank r is key r, for every seed. Each
   client draws from its own stream of the seed. The exponent 0.5 is
   a choice, not a measurement: with it most [search] reads miss the
   result cache, so the access layer does the work there. *)
type draw = { zipf : Workload.Zipf.t; st : Random.State.t }

let draws ~seed ~stream n =
  { zipf = Workload.Zipf.create ~exponent:0.5 n; st = Random.State.make [| seed; stream |] }

let next d = Workload.Zipf.sample d.zipf d.st

let request ?max_steps key =
  Service.Protocol.Exec
    {
      req = key.req;
      k = key.k;
      limits = Core.Governor.limits ?max_steps ();
      trace = false;
      parallelism = key.parallelism;
      theta = None;
    }

let line ?max_steps key =
  Service.Json.to_string (Service.Protocol.request_to_json (request ?max_steps key))

(* ------------------------------------------------------------------ *)
(* Writer documents: small generated articles carrying planted grid
   terms, so reads over the delta find them. *)

let writer_docs ~seed =
  let cfg =
    {
      Workload.Corpus.default with
      articles = 50_000;
      seed = seed + 7;
      chapters_per_article = 1;
      sections_per_chapter = 2;
      paragraphs_per_section = 2;
      planted_terms = [ (qa 1000, 20_000); (qb 1000, 20_000); (qa 100, 5_000); (qb 20, 2_000) ];
    }
  in
  Workload.Corpus.generate cfg
  |> Seq.map (fun (_, root) -> Xmlkit.Printer.to_string root)
  |> Seq.to_dispenser
