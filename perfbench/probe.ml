(* Per-layer probes for the traced run: the benchmark calls each
   layer's public functions directly, on a fixed sample of the
   workload's own keys, after the timed phases. Every timing is a
   sample per call; the caller reports medians. *)

type t = (string, Stat.samples) Hashtbl.t

let create () : t = Hashtbl.create 64

let add (t : t) name v =
  let s =
    match Hashtbl.find_opt t name with
    | Some s -> s
    | None ->
      let s = Stat.samples () in
      Hashtbl.add t name s;
      s
  in
  Stat.add s v

let time t name f =
  let v, ns = Stat.timed f in
  add t name (Stat.ms_of_ns ns);
  v

let get (t : t) name = Hashtbl.find_opt t name

(* A fixed sample: the first [per] keys of every family. *)
let sample ~per keys =
  let counts = Hashtbl.create 8 in
  Array.to_list keys
  |> List.filter (fun k ->
         let c = Option.value ~default:0 (Hashtbl.find_opt counts k.Mix.family) in
         Hashtbl.replace counts k.Mix.family (c + 1);
         c < per)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let mode complex =
  if complex then Access.Counter_scoring.Complex else Access.Counter_scoring.Simple

(* query, access, exec and ir, over one snapshot *)
let read_path t (snap : Service.Engine.snapshot) keys =
  let db = snap.Service.Engine.db and ctx = snap.Service.Engine.ctx in
  let index = Store.Db.index db and stats = Store.Db.collection_stats db in
  let rows = ref 0 and occs = ref 0 in
  let occ terms = List.fold_left (fun a term -> a + Ir.Inverted_index.collection_freq index term) 0 terms in
  let access name terms f =
    let n = List.length (time t name f) in
    rows := !rows + n;
    occs := !occs + occ terms
  in
  List.iter
    (fun key ->
      let terms = key.Mix.terms in
      (* ir: a cursor scan of the request's posting lists *)
      time t "ir.scan_ms" (fun () ->
          List.iter
            (fun term ->
              Option.iter
                (fun p -> Ir.Postings.scan p (fun _ _ _ -> ()))
                (Ir.Inverted_index.lookup index term))
            terms);
      (* service: request decoding *)
      let line = Mix.line key in
      let _, ns = Stat.timed (fun () -> Service.Protocol.parse_request line) in
      add t "service.decode_us" (float_of_int ns /. 1e3);
      match key.Mix.req with
      | Service.Engine.Search { terms; method_; complex; _ } -> (
        let mode = mode complex in
        let d, ns =
          Stat.timed (fun () -> Query.Planner.choose ~stats ~index ~terms ())
        in
        add t "query.plan_us" (float_of_int ns /. 1e3);
        (match Service.Engine.exec ?k:key.Mix.k snap key.Mix.req with
        | Ok r ->
          let est = float_of_int (max 1 d.Query.Planner.est_rows)
          and act = float_of_int (max 1 r.Service.Engine.total) in
          add t "query.est_over_actual" (Float.max (est /. act) (act /. est))
        | Error _ -> ());
        match method_ with
        | Service.Engine.Termjoin ->
          access "access.termjoin_ms" terms (fun () -> Access.Term_join.to_list ~mode ctx ~terms);
          if key.Mix.parallelism <> None || key.Mix.occ >= 2000 then begin
            let seq = time t "exec.seq_ms" (fun () -> Access.Term_join.to_list ~mode ctx ~terms) in
            let par =
              time t "exec.par2_ms" (fun () ->
                  Exec.Par.term_join ~mode ~parallelism:2 ctx ~terms)
            in
            if seq <> par then failwith "Exec.Par.term_join differs from the sequential join"
          end
        | Service.Engine.Enhanced ->
          access "access.enhanced_ms" terms (fun () ->
              Access.Term_join.to_list ~variant:Access.Term_join.Enhanced ~mode ctx ~terms)
        | Service.Engine.Genmeet ->
          access "access.genmeet_ms" terms (fun () -> Access.Gen_meet.to_list ~mode ctx ~terms)
        | _ -> ())
      | Service.Engine.Phrase { phrase; _ } ->
        access "access.phrase_ms" terms (fun () ->
            Access.Phrase_finder.to_list ctx ~phrase:(Ir.Phrase.parse phrase))
      | Service.Engine.Ranked { terms } ->
        let k = Option.value ~default:10 key.Mix.k in
        ignore (time t "access.ranked_ms" (fun () -> Access.Ranked.top_k_docs ctx ~terms ~k))
      | Service.Engine.Query { q; _ } -> (
        let ast, ns = Stat.timed (fun () -> Query.Parser.parse q) in
        add t "query.parse_us" (float_of_int ns /. 1e3);
        match ast with
        | Error _ -> ()
        | Ok ast -> (
          let plan, ns =
            Stat.timed (fun () ->
                Result.map (Query.Compile.plan_with_stats db) (Query.Compile.compile ast))
          in
          add t "query.compile_us" (float_of_int ns /. 1e3);
          match plan with
          | Ok plan when contains q "pick" ->
            ignore (time t "access.pick_ms" (fun () -> Query.Compile.execute db plan))
          | _ -> ())))
    keys;
  if !occs > 0 then add t "access.rows_per_occ" (float_of_int !rows /. float_of_int !occs)

(* store (write path) and service (Updates): a scratch live store over
   the same base, driven directly. *)
let write_path t ~dir ~base ~docs keys =
  Unix.mkdir dir 0o755;
  let live =
    match Store.Live.open_dir ~base ~wal_batch:64 ~dir () with
    | Ok o -> o.Store.Live.live
    | Error e -> failwith (Store.Live.error_to_string e)
  in
  let plain =
    match Service.Engine.of_db (Store.Live.base live) with Ok s -> s | Error e -> failwith e
  in
  let sched = Service.Scheduler.create ~workers:1 plain in
  Fun.protect
    ~finally:(fun () ->
      Service.Scheduler.shutdown sched;
      Store.Live.close live)
  @@ fun () ->
  let snap = ref plain in
  for i = 1 to 100 do
    let xml = Option.get (docs ()) in
    let _, ns =
      Stat.timed (fun () ->
          match Store.Live.insert live ~name:(Printf.sprintf "probe-%d.xml" i) ~xml with
          | Ok () -> ()
          | Error e -> failwith (Store.Live.error_to_string e))
    in
    add t "store.wal_commit_ms" (Stat.ms_of_ns ns);
    time t "service.publish_ms" (fun () ->
        let next =
          Service.Engine.with_delta
            { !snap with Service.Engine.generation = !snap.Service.Engine.generation + 1 }
            (Store.Live.delta live)
        in
        (match Service.Scheduler.reload sched next with
        | Ok () -> ()
        | Error e -> failwith (Service.Scheduler.reload_error_to_string e));
        snap := next)
  done;
  (* the same read over the delta view and over the plain base *)
  List.iter
    (fun key ->
      let run s = snd (Stat.timed (fun () -> Service.Engine.exec ?k:key.Mix.k s key.Mix.req)) in
      let over = run !snap and under = run plain in
      add t "store.delta_overlay_ms" (Stat.ms_of_ns (over - under)))
    keys;
  let token = time t "store.ckpt_begin_ms" (fun () -> Store.Live.checkpoint_begin live) in
  match token with
  | Error e -> failwith (Store.Live.error_to_string e)
  | Ok token -> (
    match time t "store.ckpt_prepare_ms" (fun () -> Store.Live.checkpoint_prepare live token) with
    | Error e -> failwith (Store.Live.error_to_string e)
    | Ok (db, path) ->
      time t "store.ckpt_install_ms" (fun () -> Store.Live.checkpoint_install live db path))

(* dist: each shard's round trip through a fresh pooled client, then
   the coordinator's whole dispatch, on the same requests. *)
let dist t coordinator keys =
  let client = Dist.Client.create () in
  Fun.protect ~finally:(fun () -> Dist.Client.close client) @@ fun () ->
  let shards = Dist.Shard_map.shards (Dist.Coordinator.shard_map coordinator) in
  List.iter
    (fun key ->
      let req = Mix.request key in
      let json = Service.Protocol.request_to_json req in
      let rtts = Stat.samples () in
      List.iter
        (fun (s : Dist.Shard_map.shard) ->
          let reply, ns =
            Stat.timed (fun () -> Dist.Client.request client (List.hd s.replicas) json)
          in
          Result.iter_error (fun e -> failwith (Dist.Client.error_message e)) reply;
          Stat.add rtts (Stat.ms_of_ns ns);
          add t "dist.shard_rtt_ms" (Stat.ms_of_ns ns))
        shards;
      let slowest = Array.fold_left Float.max 0. (Stat.to_array rtts) in
      add t "dist.fanout_skew" (slowest /. Stat.median rtts);
      let _, ns = Stat.timed (fun () -> Dist.Coordinator.handle coordinator req) in
      add t "dist.probe_merge_ms" (Stat.ms_of_ns ns -. slowest))
    keys
