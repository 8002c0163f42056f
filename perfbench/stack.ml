(* The serving stacks, composed as bin/tixd.ml and bin/tixq.ml compose
   them at their defaults, except where a workload says otherwise.
   With tracing on, every server is started through
   [Server.start_handler] with a dispatch that records spans around
   the same calls [Server.handle] makes. *)

(* ------------------------------------------------------------------ *)
(* Traced dispatch *)

(* The writer has one request in flight at a time: it publishes the
   span id of its pending mutation here for the server side. *)
let writer_rid = Atomic.make (-1)

let traced_handle ~prefix ~parent ~max_parallelism ?updates sched req =
  let rid =
    match req with
    | Service.Protocol.Exec _ -> Spans.rid_of_request req
    | Service.Protocol.(Insert _ | Remove _ | UpdateDoc _) -> Atomic.get writer_rid
    | _ -> -1
  in
  let name suffix = prefix ^ suffix in
  let handle = name "handle" in
  Spans.around ~rid ~name:handle ~parent (fun () ->
      match req with
      | Service.Protocol.Exec { req; k; limits; trace; parallelism; theta } when rid >= 0 -> (
        (* [Scheduler.run], unrolled so admission, execution and
           encoding are timed separately *)
        let outcome = ref None and started = ref 0 and finished = ref 0 in
        let parallelism = Option.map (fun n -> max 1 (min n max_parallelism)) parallelism in
        let submitted = Stat.now_ns () in
        let work () =
          started := Stat.now_ns ();
          outcome :=
            Some
              (Service.Engine.exec ~caches:(Service.Scheduler.caches sched) ~limits ?k
                 ?theta ~trace ?parallelism (Service.Scheduler.snapshot sched) req);
          finished := Stat.now_ns ()
        in
        match Service.Scheduler.submit_fn sched work with
        | Error e ->
          Service.Protocol.error_to_json ~code:(Service.Scheduler.error_code e)
            ~message:"submission rejected"
        | Ok p -> (
          Service.Scheduler.await p;
          Spans.record ~rid ~name:(name "queue_wait") ~parent:handle submitted !started;
          (* from the worker's finish until this connection thread runs
             again: the wake-up and the wait for the runtime lock *)
          Spans.record ~rid ~name:(name "resume") ~parent:handle !finished (Stat.now_ns ());
          (* a result-cache hit is recorded apart, so [exec] times
             real executions only *)
          let cached =
            match !outcome with Some (Ok r) -> r.Service.Engine.cached | _ -> false
          in
          Spans.record ~rid
            ~name:(name (if cached then "exec_cached" else "exec"))
            ~parent:handle !started !finished;
          match !outcome with
          | Some (Ok result) ->
            Spans.around ~rid ~name:(name "encode") ~parent:handle (fun () ->
                let json = Service.Protocol.result_to_json result in
                ignore (Service.Json.to_string json : string);
                json)
          | Some (Error e) -> Service.Protocol.engine_error_to_json e
          | None -> Service.Protocol.error_to_json ~code:"internal" ~message:"no outcome"))
      | Service.Protocol.(Insert _ | Remove _ | UpdateDoc _) ->
        Spans.around ~rid ~name:"service.updates" ~parent:handle (fun () ->
            Service.Server.handle ?updates sched req)
      | req -> Service.Server.handle ?updates sched req)

(* ------------------------------------------------------------------ *)
(* Set-up *)

type timings = {
  mutable parse_ns : int;
  mutable load_ns : int;
  mutable save_ns : int;
  mutable open_ns : int;
  mutable pin_ns : int;
  mutable total_ns : int;
  mutable image_bytes : int;
}

type node = { server : Service.Server.t; scheduler : Service.Scheduler.t }

type t = {
  port : int;
  node : node option;  (** the single-node server (search, ingest) *)
  updates : Service.Updates.t option;
  shards : node list;
  coordinator : Dist.Coordinator.t option;
  front : Service.Server.t;  (** the server the clients talk to *)
  corpus : Store.Db.t;
      (** the whole corpus: the served image, or for [federated] the
          unsharded database the shards were cut from *)
  timings : timings;
  docs : int;
}

let parse_files paths =
  List.map
    (fun path ->
      match Xmlkit.Parser.parse_file path with
      | Ok root -> (Filename.basename path, root)
      | Error e -> failwith (Format.asprintf "%s: %a" path Xmlkit.Parser.pp_error e))
    paths

let file_size path = (Unix.stat path).Unix.st_size

let open_image tm path =
  let db, ns =
    Stat.timed (fun () ->
        match Store.Db.open_file path with
        | Ok db -> db
        | Error e -> failwith (Store.Db.error_to_string e))
  in
  tm.open_ns <- tm.open_ns + ns;
  db

let snapshot_of tm ?source db =
  let snap, ns =
    Stat.timed (fun () ->
        match Service.Engine.of_db ?source db with
        | Ok s -> s
        | Error e -> failwith e)
  in
  tm.pin_ns <- tm.pin_ns + ns;
  snap

let start ~traced ~prefix ~parent ~max_parallelism ?updates sched =
  if traced then
    Service.Server.start_handler
      (traced_handle ~prefix ~parent ~max_parallelism ?updates sched)
  else Service.Server.start ?updates sched

type kind =
  | Search
  | Ingest of { wal_dir : string; every_docs : int }
  | Federated of { shard_dir : string }

(* Ready-to-serve: parse the corpus files, load, save, map the image,
   pin the snapshot, start the server(s). *)
let setup ~traced ~kind ~image paths =
  let tm =
    { parse_ns = 0; load_ns = 0; save_ns = 0; open_ns = 0; pin_ns = 0; total_ns = 0;
      image_bytes = 0 }
  in
  let t0 = Stat.now_ns () in
  let docs, ns = Stat.timed (fun () -> parse_files paths) in
  tm.parse_ns <- ns;
  let full_db, ns = Stat.timed (fun () -> Store.Db.of_documents docs) in
  tm.load_ns <- ns;
  let ndocs = List.length docs in
  let save db path =
    let (), ns = Stat.timed (fun () -> Store.Db.save db path) in
    tm.save_ns <- tm.save_ns + ns;
    tm.image_bytes <- tm.image_bytes + file_size path
  in
  let stack =
    match kind with
    | Search | Ingest _ ->
      save full_db image;
      let db = open_image tm image in
      let max_parallelism = match kind with Search -> 2 | _ -> 1 in
      let scheduler, updates =
        match kind with
        | Ingest { wal_dir; every_docs } ->
          Unix.mkdir wal_dir 0o755;
          let opened =
            match Store.Live.open_dir ~base:db ~wal_batch:64 ~dir:wal_dir () with
            | Ok o -> o
            | Error e -> failwith (Store.Live.error_to_string e)
          in
          let live = opened.Store.Live.live in
          let snap = snapshot_of tm ~source:image (Store.Live.base live) in
          let snap = Service.Engine.with_delta snap (Store.Live.delta live) in
          let scheduler = Service.Scheduler.create ~max_parallelism snap in
          (scheduler, Some (Service.Updates.create ~every_docs ~live ~scheduler ()))
        | _ ->
          (Service.Scheduler.create ~max_parallelism (snapshot_of tm ~source:image db), None)
      in
      let server =
        start ~traced ~prefix:"service." ~parent:"client.rtt" ~max_parallelism ?updates
          scheduler
      in
      {
        port = Service.Server.port server;
        node = Some { server; scheduler };
        updates;
        shards = [];
        coordinator = None;
        front = server;
        corpus = db;
        timings = tm;
        docs = ndocs;
      }
    | Federated { shard_dir } ->
      (* as `tixdb shard` builds them: dense per-range compactions *)
      Unix.mkdir shard_dir 0o755;
      let ranges = Dist.Shard_map.ranges ~docs:ndocs ~shards:2 in
      let nodes =
        List.mapi
          (fun i (lo, hi) ->
            let tombstones = Array.init ndocs (fun d -> d < lo || d >= hi) in
            let shard_db, ns =
              Stat.timed (fun () -> Store.Db.compact ~base:full_db ~delta:None ~tombstones)
            in
            tm.load_ns <- tm.load_ns + ns;
            let image = Filename.concat shard_dir (Printf.sprintf "shard-%d.tix" i) in
            save shard_db image;
            let snap = snapshot_of tm ~source:image (open_image tm image) in
            let scheduler = Service.Scheduler.create ~workers:1 snap in
            let server =
              start ~traced ~prefix:(Printf.sprintf "shard%d." i) ~parent:"service.handle"
                ~max_parallelism:1 scheduler
            in
            ( { Dist.Shard_map.lo; hi; image;
                replicas = [ { Dist.Shard_map.host = "127.0.0.1"; port = Service.Server.port server } ] },
              { server; scheduler } ))
          ranges
      in
      let map =
        match Dist.Shard_map.make (List.map fst nodes) with
        | Ok m -> m
        | Error e -> failwith e
      in
      let client =
        Dist.Client.create ~connect_timeout:2.0 ~request_timeout:30.0 ~retries:2 ()
      in
      let coordinator = Dist.Coordinator.create ~window:0 ~client ~source:shard_dir map in
      let handle = Dist.Coordinator.handle coordinator in
      let handle =
        if traced then fun req ->
          Spans.around ~rid:(Spans.rid_of_request req) ~name:"service.handle"
            ~parent:"client.rtt" (fun () -> handle req)
        else handle
      in
      let front = Service.Server.start_handler ~name:"tixq" handle in
      {
        port = Service.Server.port front;
        node = None;
        updates = None;
        shards = List.map snd nodes;
        coordinator = Some coordinator;
        front;
        corpus = full_db;
        timings = tm;
        docs = ndocs;
      }
  in
  tm.total_ns <- Stat.now_ns () - t0;
  stack

let stop t =
  Service.Server.stop t.front;
  Option.iter (fun c -> Dist.Client.close (Dist.Coordinator.client c)) t.coordinator;
  Option.iter Service.Updates.shutdown t.updates;
  List.iter
    (fun n ->
      Service.Server.stop n.server;
      Service.Scheduler.shutdown n.scheduler)
    (Option.to_list t.node @ t.shards);
  Option.iter (fun u -> Store.Live.close (Service.Updates.live u)) t.updates

(* Every scheduler of the stack: the single node's, or each shard's. *)
let schedulers t = Option.to_list t.node @ t.shards |> List.map (fun n -> n.scheduler)
