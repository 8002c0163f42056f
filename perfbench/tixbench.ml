(* tixbench: the TIX serving benchmark.

     tixbench --workload search|ingest|federated --seed N --seconds S --trace 0|1

   Runs one workload against the real serving stack over loopback TCP
   with closed-loop clients (each waits for its reply), checks every
   answer, and prints one JSON result as the last line of standard
   output: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. The line before it holds the run's
   metadata (host cores, corpus size, seed, sample counts, cache hit
   ratios, checkpoints). The process exits non-zero, printing no
   result, when an answer differs from the oracle or an operation
   fails. See perfbench/README.md. *)

(* Set-up runs once untimed, so that the heap and the page cache are
   warm, then [setup_reps] times; [setup_s] is their median. *)
let setup_reps = 5
let warmup_s = 1.5

(* 4.5 times the default result cache (1024 entries); the federated
   key space fits in a shard's cache. *)
let search_keys = 4608
let federated_keys = 256

(* The read percentile each workload reports as [read_p99_ms]: p99
   where a run holds thousands of reads, p95 on [ingest], whose
   single reader completes a few hundred. Fixed per workload, so the
   metric does not change meaning with the sample count; the
   percentile rule still lowers it, and says so, when fewer than 10
   samples lie beyond it. *)
let read_tail = function "ingest" -> 0.95 | _ -> 0.99

(* Auto-checkpoint trigger of the ingest server: several background
   checkpoints complete in every run. *)
let ingest_every_docs = 150

let usage () =
  prerr_endline
    "usage: tixbench --workload search|ingest|federated --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload [ "search"; "ingest"; "federated" ]))
    || !seed < 0 || !seconds < 1
    || not (List.mem !trace [ 0; 1 ])
  then usage ();
  (!workload, !seed, !seconds, !trace = 1)

let nproc () = Domain.recommended_domain_count ()

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Bytes this process caused to be written to storage. *)
let storage_write_bytes () =
  let ic = open_in "/proc/self/io" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 12 && String.sub line 0 12 = "write_bytes:" ->
      Scanf.sscanf line "write_bytes: %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Time the host's virtual processors were ready to run while the
   hypervisor ran other guests: the steal column of /proc/stat, in
   ticks of 1/100 s. Reported with each run: on a shared host it, not
   the program, explains most run-to-run spread. *)
let steal_ticks () =
  let line = In_channel.with_open_text "/proc/stat" input_line in
  try Scanf.sscanf line "cpu %d %d %d %d %d %d %d %d" (fun _ _ _ _ _ _ _ st -> st)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0

let started = Stat.now_ns ()

(* Progress on standard error, stamped with seconds since start. *)
let log fmt =
  Printf.ksprintf
    (fun m -> Printf.eprintf "perfbench [%6.1fs] %s\n%!" (Stat.s_of_ns (Stat.now_ns () - started)) m)
    fmt

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Readers: closed-loop clients over the read-key space *)

(* The first answer seen for a key, and how many responses carried
   it or another one. *)
type key_record = { answer : Wire.answer; mutable served : int; mutable bad : int }

type reads = {
  lat : Stat.samples;  (** ms, send to last response byte *)
  drawn : int array;  (** requests per key id *)
  steps : Stat.samples;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable rounding_keys : int;
  mutable rounding_responses : int;
      (** answers showing only the coordinator's score-rounding
          defect ([Wire.rounding_only]); counted apart from [failed] *)
  mutable replies : (int * string) list;
      (** key id and reply line, newest first, until [settle] *)
  seen : (int, key_record) Hashtbl.t;  (** per key id, shared by every phase of a run *)
  lock : Mutex.t;
}

let reads ~seen n =
  {
    lat = Stat.samples ();
    drawn = Array.make n 0;
    steps = Stat.samples ();
    attempted = 0;
    failed = 0;
    errors = [];
    rounding_keys = 0;
    rounding_responses = 0;
    replies = [];
    seen;
    lock = Mutex.create ();
  }

let note_error r msg = if List.length r.errors < 5 then r.errors <- msg :: r.errors

let next_rid = Atomic.make 0

(* One closed-loop reader. It keeps each reply line as it came;
   [settle] parses and checks them once the phase is over, so that
   the timed loop holds no work of the benchmark's own. *)
let reader ~port ~keys ~lines ~draw ~until ~traced r =
  let conn = Wire.connect port in
  Fun.protect ~finally:(fun () -> Wire.close conn) @@ fun () ->
  let broken = ref false in
  while (not !broken) && Stat.now_ns () < until do
    let i = Mix.next draw in
    let rid = if traced then Atomic.fetch_and_add next_rid 1 else -1 in
    let line =
      if traced then Mix.line ~max_steps:(Spans.tag_base + rid) keys.(i) else lines.(i)
    in
    let resp, t0, t1 = Wire.call conn line in
    Spans.record ~rid ~name:"client.rtt" ~parent:"" t0 t1;
    Mutex.protect r.lock (fun () ->
        r.attempted <- r.attempted + 1;
        r.drawn.(i) <- r.drawn.(i) + 1;
        Stat.add r.lat (Stat.ms_of_ns (t1 - t0));
        match resp with
        | Error e ->
          (* the connection is in an unknown state: this client stops *)
          broken := true;
          r.failed <- r.failed + 1;
          note_error r (Printf.sprintf "%s: connection failed: %s" keys.(i).Mix.family e)
        | Ok reply -> r.replies <- (i, reply) :: r.replies)
  done

(* After a phase: parse every kept reply. With [check], each answer
   is compared with the first answer seen for its key (itself checked
   against the oracle once the run ends); without it (reads racing
   writes) only errors count. *)
let settle ~keys ~check r =
  List.iter
    (fun (i, reply) ->
      match Wire.parse_reply reply with
      | Wire.Failed why ->
        r.failed <- r.failed + 1;
        note_error r (Printf.sprintf "%s: %s" keys.(i).Mix.family why)
      | Wire.Answer (a, steps) ->
        Stat.add r.steps (float_of_int steps);
        if check then begin
          let kr =
            match Hashtbl.find_opt r.seen i with
            | Some kr -> kr
            | None ->
              let kr = { answer = a; served = 0; bad = 0 } in
              Hashtbl.add r.seen i kr;
              kr
          in
          kr.served <- kr.served + 1;
          if kr.answer <> a then begin
            kr.bad <- kr.bad + 1;
            r.failed <- r.failed + 1;
            note_error r (keys.(i).Mix.family ^ ": answer changed between responses")
          end
        end)
    (List.rev r.replies);
  r.replies <- []

(* After the run: every key's answer against the oracle — single
   node, sequential, no caches — computed on two domains. A wrong
   answer fails every response that carried it; the failures are
   counted in [r]. With [~federated], an answer that differs only as
   the coordinator's known score-rounding defect does is counted
   apart (see [Wire.rounding_only]). *)
let check_oracle ~federated ~snapshot ~keys ~seen r =
  let seen = Array.of_seq (Hashtbl.to_seq seen) in
  let verdict (i, kr) =
    let key = keys.(i) in
    match Service.Engine.exec ?k:key.Mix.k snapshot key.Mix.req with
    | Ok res when Wire.answer_of_result res = kr.answer -> `Right
    | Ok res when federated && Wire.rounding_only kr.answer (Wire.answer_of_result res) ->
      `Rounding kr
    | Ok res ->
      let got = kr.answer and want = Wire.answer_of_result res in
      `Wrong
        ( kr,
          Printf.sprintf "%s: answer differs from the oracle (total %d, oracle %d): %s"
            key.Mix.family got.Wire.total want.Wire.total (Mix.line key) )
    | Error e -> `Wrong (kr, key.Mix.family ^ ": oracle error " ^ Service.Engine.error_message e)
  in
  let half = Array.length seen / 2 in
  let other = Domain.spawn (fun () -> Array.map verdict (Array.sub seen 0 half)) in
  let mine = Array.map verdict (Array.sub seen half (Array.length seen - half)) in
  Array.iter
    (function
      | `Right -> ()
      | `Rounding kr ->
        r.rounding_keys <- r.rounding_keys + 1;
        r.rounding_responses <- r.rounding_responses + kr.served
      | `Wrong (kr, why) ->
        r.failed <- r.failed + (kr.served - kr.bad);
        note_error r why)
    (Array.append (Domain.join other) mine)

(* ------------------------------------------------------------------ *)
(* The writer: closed-loop inserts, updates and deletes (70/20/10) *)

type doc_source = File of string | Inline of string

(* The acknowledged corpus, kept across phases. *)
type model = {
  docs_of : (string, doc_source) Hashtbl.t;
  mutable names : string array;  (** live document names, for targets *)
  mutable live_n : int;
  mutable inserted : int;
}

let model base_paths =
  let docs_of = Hashtbl.create 4096 in
  List.iter (fun p -> Hashtbl.replace docs_of (Filename.basename p) (File p)) base_paths;
  let names = Array.of_list (List.map Filename.basename base_paths) in
  { docs_of; names; live_n = Array.length names; inserted = 0 }

type writes = {
  wlat : Stat.samples;  (** ms, send to acknowledgement *)
  mutable wattempted : int;
  mutable wfailed : int;
  mutable acked : int;
  mutable acked_bytes : int;  (** document XML acknowledged *)
  mutable werrors : string list;
}

let writes () =
  { wlat = Stat.samples (); wattempted = 0; wfailed = 0; acked = 0; acked_bytes = 0; werrors = [] }

let writer ~port ~seed ~stream ~docs ~until ~traced m w =
  let st = Random.State.make [| seed; stream |] in
  let conn = Wire.connect port in
  Fun.protect ~finally:(fun () -> Wire.close conn) @@ fun () ->
  let broken = ref false in
  while (not !broken) && Stat.now_ns () < until do
    let p = Random.State.int st 100 in
    let target () = m.names.(Random.State.int st m.live_n) in
    let op, name, xml =
      if p < 70 || m.live_n < 2 then begin
        m.inserted <- m.inserted + 1;
        (`Insert, Printf.sprintf "article-w%d-%d.xml" stream m.inserted, Some (Option.get (docs ())))
      end
      else if p < 90 then (`Update, target (), Some (Option.get (docs ())))
      else (`Delete, target (), None)
    in
    let req =
      match (op, xml) with
      | `Insert, Some xml -> Service.Protocol.Insert { name; xml }
      | `Update, Some xml -> Service.Protocol.UpdateDoc { name; xml }
      | _ -> Service.Protocol.Remove { name }
    in
    let line = Service.Json.to_string (Service.Protocol.request_to_json req) in
    let rid = if traced then Atomic.fetch_and_add next_rid 1 else -1 in
    Atomic.set Stack.writer_rid rid;
    let resp, t0, t1 = Wire.call conn line in
    Spans.record ~rid ~name:"client.rtt" ~parent:"" t0 t1;
    w.wattempted <- w.wattempted + 1;
    Stat.add w.wlat (Stat.ms_of_ns (t1 - t0));
    if Result.fold ~ok:Wire.ok_reply ~error:(fun _ -> broken := true; false) resp then begin
      w.acked <- w.acked + 1;
      match (op, xml) with
      | `Insert, Some xml ->
        Hashtbl.replace m.docs_of name (Inline xml);
        if m.live_n = Array.length m.names then
          m.names <- Array.append m.names (Array.make m.live_n "");
        m.names.(m.live_n) <- name;
        m.live_n <- m.live_n + 1;
        w.acked_bytes <- w.acked_bytes + String.length xml
      | `Update, Some xml ->
        Hashtbl.replace m.docs_of name (Inline xml);
        w.acked_bytes <- w.acked_bytes + String.length xml
      | _ ->
        Hashtbl.remove m.docs_of name;
        let j = ref 0 in
        while m.names.(!j) <> name do incr j done;
        m.names.(!j) <- m.names.(m.live_n - 1);
        m.live_n <- m.live_n - 1
    end
    else begin
      w.wfailed <- w.wfailed + 1;
      if List.length w.werrors < 5 then
        w.werrors <- Result.fold ~ok:Fun.id ~error:(( ^ ) "connection failed: ") resp :: w.werrors
    end
  done

let read_doc = function
  | Inline xml -> xml
  | File path -> In_channel.with_open_bin path In_channel.input_all

(* The ingest end check: after a final synchronous checkpoint, the
   served image must hold exactly the acknowledged documents, and a
   fixed query sample must answer as a from-scratch load of them. *)
let check_ingest ~port ~keys m r =
  let conn = Wire.connect port in
  Fun.protect ~finally:(fun () -> Wire.close conn) @@ fun () ->
  let resp, _, _ =
    Wire.call conn
      (Service.Json.to_string
         (Service.Protocol.request_to_json (Service.Protocol.Checkpoint { wait = true })))
  in
  let resp = Result.fold ~ok:Fun.id ~error:Fun.id resp in
  let path =
    match Service.Json.parse resp with
    | Ok j -> Option.bind (Service.Json.member "path" j) Service.Json.to_string_opt
    | Error _ -> None
  in
  match path with
  | None ->
    r.failed <- r.failed + 1;
    note_error r ("final checkpoint failed: " ^ resp)
  | Some path ->
    let served = Store.Db.open_file_exn path in
    let cat = Store.Db.catalog served in
    let names = List.init (Store.Catalog.document_count cat) (Store.Catalog.document_name cat) in
    let expected = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) m.docs_of []) in
    if List.sort compare names <> expected then begin
      r.failed <- r.failed + 1;
      note_error r "served documents differ from the acknowledged ones"
    end
    else begin
      let docs =
        List.map
          (fun n -> (n, Xmlkit.Parser.parse_string_exn (read_doc (Hashtbl.find m.docs_of n))))
          names
      in
      let rebuilt =
        match Service.Engine.of_db (Store.Db.of_documents docs) with
        | Ok s -> s
        | Error e -> failwith e
      in
      let sample = Array.sub keys 0 (min 64 (Array.length keys)) in
      Array.iter
        (fun key ->
          let resp, _, _ = Wire.call conn (Mix.line key) in
          r.attempted <- r.attempted + 1;
          let ok =
            match
              ( Result.map Wire.parse_reply resp,
                Service.Engine.exec ?k:key.Mix.k rebuilt key.Mix.req )
            with
            | Ok (Wire.Answer (a, _)), Ok res -> a = Wire.answer_of_result res
            | _ -> false
          in
          if not ok then begin
            r.failed <- r.failed + 1;
            note_error r (key.Mix.family ^ ": differs from the from-scratch load")
          end)
        sample
    end

(* ------------------------------------------------------------------ *)
(* Phases *)

type phase = {
  reads : reads;
  writes : writes option;
  seconds : float;
  gc : Gc.stat * Gc.stat;
  io_bytes : int;  (** storage bytes written during the phase *)
  checkpoints : int;  (** completed during the phase *)
  group_commit : int * int;  (** fsync batches, records *)
  cache : (int * int) * (int * int);  (** result, plan: (hits, lookups) *)
  steal_s : float;  (** host steal during the phase, see [steal_ticks] *)
}

let live_stats stack =
  Option.map (fun u -> Store.Live.stats (Service.Updates.live u)) stack.Stack.updates

let cache_counts stack =
  List.fold_left
    (fun ((rh, rl), (ph, pl)) s ->
      let st = Service.Scheduler.stats s in
      let r = st.Service.Scheduler.result_cache and p = st.Service.Scheduler.plan_cache in
      ( (rh + r.Service.Lru.hits, rl + r.hits + r.misses),
        (ph + p.Service.Lru.hits, pl + p.hits + p.misses) ))
    ((0, 0), (0, 0))
    (Stack.schedulers stack)

(* Run the workload's two closed-loop connections for [seconds]. *)
let run_phase ~workload ~stack ~keys ~lines ~seen ~seed ~stream ~seconds ~traced ~docs ~model =
  let r = reads ~seen (Array.length keys) in
  let w = Option.map (fun _ -> writes ()) model in
  let until = Stat.now_ns () + int_of_float (seconds *. 1e9) in
  let draw c = Mix.draws ~seed ~stream:(stream + c) (Array.length keys) in
  let port = stack.Stack.port in
  let check = workload <> "ingest" in
  let ls0 = live_stats stack and io0 = storage_write_bytes () and c0 = cache_counts stack in
  let steal0 = steal_ticks () in
  let g0 = Gc.quick_stat () in
  let t0 = Stat.now_ns () in
  let read_loop c () = reader ~port ~keys ~lines ~draw:(draw c) ~until ~traced r in
  let clients () =
    let threads =
      match (model, w) with
      | Some m, Some w ->
        [
          Thread.create
            (fun () ->
              try writer ~port ~seed ~stream ~docs ~until ~traced m w
              with e ->
                w.werrors <- ("writer: " ^ Printexc.to_string e) :: w.werrors;
                w.wfailed <- w.wfailed + 1)
            ();
          Thread.create (read_loop 1) ();
        ]
      | _ -> List.init 2 (fun c -> Thread.create (read_loop c) ())
    in
    List.iter Thread.join threads
  in
  (* Where the client threads run. On [search] the main domain holds
     only the server's two connection threads, which mostly wait on
     their sockets and on the workers; the clients share it, since a
     further busy domain on a 2-core host made the runs less steady
     (read_p50_ms spread .15 against .08 over six interleaved seeds).
     On [ingest] the writer's publishes and the checkpoints, and on
     [federated] the coordinator and both shard servers, keep the main
     domain busy: there the clients get a domain of their own, as a
     client process would have, so that reading their clock does not
     wait for that domain's runtime lock. In both cases the clients
     do nothing but send, receive and keep the reply while timed. *)
  if workload = "search" then clients () else Domain.join (Domain.spawn clients);
  let elapsed = Stat.s_of_ns (Stat.now_ns () - t0) in
  let g1 = Gc.quick_stat () in
  let io1 = storage_write_bytes () and c1 = cache_counts stack and ls1 = live_stats stack in
  let steal1 = steal_ticks () in
  settle ~keys ~check r;
  let ((a, b), (c, d)), ((a', b'), (c', d')) = (c1, c0) in
  let checkpoints, group_commit =
    match (ls0, ls1) with
    | Some x, Some y ->
      ( y.Store.Live.checkpoints - x.Store.Live.checkpoints,
        (y.gc_batches - x.gc_batches, y.gc_records - x.gc_records) )
    | _ -> (0, (0, 0))
  in
  {
    reads = r;
    writes = w;
    seconds = elapsed;
    gc = (g0, g1);
    io_bytes = io1 - io0;
    checkpoints;
    group_commit;
    cache = ((a - a', b - b'), (c - c', d - d'));
    steal_s = float_of_int (steal1 - steal0) /. 100.;
  }

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let ratio (hits, lookups) = per hits lookups

let failed p =
  p.reads.failed + match p.writes with Some w -> w.wfailed | None -> 0

let attempted p =
  p.reads.attempted + match p.writes with Some w -> w.wattempted | None -> 0

let errors p =
  p.reads.errors @ match p.writes with Some w -> w.werrors | None -> []

(* ------------------------------------------------------------------ *)
(* Results *)

let metric name unit v =
  (name, Stat.json_obj [ ("value", Stat.json_num v); ("unit", Stat.json_str unit) ])

let result ~attempted metrics =
  Stat.json_obj
    [
      ("correct", "true");
      ("attempted", string_of_int attempted);
      ("failed", "0");
      ("metrics", Stat.json_obj metrics);
    ]

(* The stage-sum check over the traced requests: see [Spans]. *)
let stage_bound rtt_p50 = Float.max 0.05 (0.1 *. rtt_p50)

let per_layer ~workload ~stack ~keys ~setup ~xml_bytes ~main ~traced_phase ~probe ~rounding =
  let med name = match Probe.get probe name with Some s -> Stat.median s | None -> 0. in
  (* span attribution of the traced reads *)
  let requests_spans = Spans.by_request () in
  let atts =
    Hashtbl.fold
      (fun _ l acc ->
        match Spans.attribute l with
        | Some a when a.Spans.updates = 0. -> a :: acc
        | _ -> acc)
      requests_spans []
  in
  let col f =
    let s = Stat.samples () in
    List.iter (fun a -> Stat.add s (f a)) atts;
    s
  in
  let rtt = col (fun a -> a.Spans.rtt) and unattributed = col (fun a -> a.Spans.unattributed) in
  let negative = List.length (List.filter (fun a -> a.Spans.negative) atts) in
  let bound = stage_bound (Stat.median rtt) in
  let stage_ok =
    atts <> [] && Stat.median unattributed <= bound
    && float_of_int negative <= 0.01 *. float_of_int (List.length atts)
  in
  (* real executions only: requests whose exec span was not a cache hit *)
  let exec_ms =
    let s = Stat.samples () in
    Hashtbl.iter
      (fun _ l ->
        List.iter
          (fun sp -> if Filename.extension sp.Spans.name = ".exec" then Stat.add s (Spans.dur sp))
          l)
      requests_spans;
    s
  in
  let untraced_p50 = Stat.median main.reads.lat in
  let traced_p50 = Stat.median traced_phase.reads.lat in
  let requests = attempted main in
  let g0, g1 = main.gc in
  let tm f = Stat.median (List.fold_left (fun s t -> Stat.add s (f t); s) (Stat.samples ()) setup) in
  let ws = main.writes in
  let wsum = Option.map (fun w -> Stat.summarize ~want:0.99 w.wlat) ws in
  let occ_per_req =
    let n = Array.fold_left ( + ) 0 main.reads.drawn in
    let index = Store.Db.index stack.Stack.corpus in
    let occ = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then
          occ :=
            !occ
            + c
              * List.fold_left
                  (fun a t -> a + Ir.Inverted_index.collection_freq index t)
                  0 keys.(i).Mix.terms)
      main.reads.drawn;
    per !occ n
  in
  let seq = med "exec.seq_ms" and par = med "exec.par2_ms" in
  let details =
    Stat.json_obj
      (List.map
         (fun (name, s) -> (name, Stat.summary_json (Stat.summarize ~want:0.99 s)))
         (List.sort compare (List.of_seq (Hashtbl.to_seq probe)))
      @ [
          ("trace.rtt_ms", Stat.summary_json (Stat.summarize ~want:0.99 rtt));
          ("trace.unattributed_ms", Stat.summary_json (Stat.summarize ~want:0.99 unattributed));
          ("service.exec_ms", Stat.summary_json (Stat.summarize ~want:0.99 exec_ms));
          ("stage_sum_check",
            Stat.json_obj
              [
                ("requests", string_of_int (List.length atts));
                ("negative_parts", string_of_int negative);
                ("unattributed_bound_ms", Stat.json_num bound);
                ("passed", if stage_ok then "true" else "false");
              ] );
        ])
  in
  let metrics =
    [
      metric "service.wire_ms" "ms" (Stat.median (col (fun a -> a.Spans.wire)));
      metric "service.decode_us" "us" (med "service.decode_us");
      metric "service.encode_us" "us" (1e3 *. Stat.median (col (fun a -> a.Spans.encode)));
      metric "service.queue_wait_ms" "ms" (Stat.median (col (fun a -> a.Spans.queue)));
      metric "service.exec_ms" "ms" (Stat.median exec_ms);
      metric "service.resume_ms" "ms" (Stat.median (col (fun a -> a.Spans.resume)));
      metric "service.result_cache_hit_ratio" "ratio" (ratio (fst main.cache));
      metric "service.plan_cache_hit_ratio" "ratio" (ratio (snd main.cache));
      metric "service.publish_ms" "ms" (med "service.publish_ms");
      metric "query.parse_us" "us" (med "query.parse_us");
      metric "query.compile_us" "us" (med "query.compile_us");
      metric "query.plan_us" "us" (med "query.plan_us");
      metric "query.est_over_actual" "ratio" (med "query.est_over_actual");
      metric "access.termjoin_ms" "ms" (med "access.termjoin_ms");
      metric "access.enhanced_ms" "ms" (med "access.enhanced_ms");
      metric "access.genmeet_ms" "ms" (med "access.genmeet_ms");
      metric "access.phrase_ms" "ms" (med "access.phrase_ms");
      metric "access.ranked_ms" "ms" (med "access.ranked_ms");
      metric "access.pick_ms" "ms" (med "access.pick_ms");
      metric "access.rows_per_occ" "ratio" (med "access.rows_per_occ");
      metric "exec.par2_ms" "ms" par;
      metric "exec.par2_speedup" "ratio" (if par > 0. then seq /. par else 0.);
      metric "ir.occ_per_req" "count" occ_per_req;
      metric "ir.scan_ms" "ms" (med "ir.scan_ms");
      metric "core.steps_per_req" "count" (Stat.mean main.reads.steps);
      metric "store.load_s" "s" (tm (fun t -> Stat.s_of_ns t.Stack.load_ns));
      metric "store.save_s" "s" (tm (fun t -> Stat.s_of_ns t.Stack.save_ns));
      metric "store.open_ms" "ms" (tm (fun t -> Stat.ms_of_ns t.Stack.open_ns));
      metric "store.pin_ms" "ms" (tm (fun t -> Stat.ms_of_ns t.Stack.pin_ns));
      metric "store.image_bytes_per_xml_byte" "ratio"
        (tm (fun t -> float_of_int t.Stack.image_bytes /. float_of_int xml_bytes));
      metric "store.wal_commit_ms" "ms" (med "store.wal_commit_ms");
      metric "store.fsyncs_per_doc" "ratio" (per (fst main.group_commit) (snd main.group_commit));
      metric "store.delta_overlay_ms" "ms" (med "store.delta_overlay_ms");
      metric "store.ckpt_begin_ms" "ms" (med "store.ckpt_begin_ms");
      metric "store.ckpt_prepare_ms" "ms" (med "store.ckpt_prepare_ms");
      metric "store.ckpt_install_ms" "ms" (med "store.ckpt_install_ms");
      metric "xmlkit.parse_ms_per_doc" "ms"
        (tm (fun t -> Stat.ms_of_ns t.Stack.parse_ns /. float_of_int stack.Stack.docs));
      metric "dist.shard_rtt_ms" "ms" (med "dist.shard_rtt_ms");
      metric "dist.fanout_skew" "ratio" (med "dist.fanout_skew");
      metric "dist.merge_ms" "ms"
        (if workload = "federated" then Stat.median (col (fun a -> a.Spans.merge)) else 0.);
      metric "dist.score_rounding_ratio" "ratio" rounding;
      metric "dist.reconnects" "count"
        (match stack.Stack.coordinator with
        | Some c -> float_of_int (Dist.Client.reconnects (Dist.Coordinator.client c))
        | None -> 0.);
      metric "gc.minor_per_req" "count" (per (g1.Gc.minor_collections - g0.Gc.minor_collections) requests);
      metric "gc.major_per_req" "count" (per (g1.Gc.major_collections - g0.Gc.major_collections) requests);
      metric "gc.promoted_kw_per_req" "kword"
        ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e3 /. float_of_int (max 1 requests));
      metric "write_docs_per_s" "docs/s"
        (match ws with Some w -> float_of_int w.acked /. main.seconds | None -> 0.);
      metric "write_ack_p50_ms" "ms" (match wsum with Some s -> s.Stat.p50 | None -> 0.);
      metric "write_ack_p99_ms" "ms" (match wsum with Some s -> s.Stat.p99 | None -> 0.);
      metric "write_amp" "ratio"
        (match ws with Some w -> per main.io_bytes w.acked_bytes | None -> 0.);
      metric "fail_ratio" "ratio" (per (failed main) requests);
      metric "trace.read_p50_ms" "ms" traced_p50;
      metric "trace.overhead_ratio" "ratio" (traced_p50 /. untraced_p50);
      metric "trace.unattributed_ms" "ms" (Stat.median unattributed);
    ]
  in
  (metrics, details, stage_ok)

(* ------------------------------------------------------------------ *)

let () =
  let workload, seed, seconds, traced = args () in
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  let root = Filename.concat ".perfbench" (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  rm_rf root;
  Unix.mkdir root 0o755;
  let at f = Filename.concat root f in
  let status =
    Fun.protect ~finally:(fun () -> try rm_rf root with _ -> ()) @@ fun () ->
    (* the corpus files (not timed) *)
    Unix.mkdir (at "corpus") 0o755;
    let xml_bytes = ref 0 in
    let paths =
      Workload.Corpus.generate Mix.corpus_config
      |> Seq.map (fun (name, root) ->
             let path = Filename.concat (at "corpus") name in
             let xml = Xmlkit.Printer.to_string root in
             xml_bytes := !xml_bytes + String.length xml;
             Out_channel.with_open_bin path (fun oc -> output_string oc xml);
             path)
      |> List.of_seq
    in
    log "corpus: %d files, %d bytes" (List.length paths) !xml_bytes;
    let kind rep =
      match workload with
      | "search" -> Stack.Search
      | "ingest" -> Stack.Ingest { wal_dir = at (Printf.sprintf "wal%d" rep); every_docs = ingest_every_docs }
      | _ -> Stack.Federated { shard_dir = at (Printf.sprintf "shards%d" rep) }
    in
    (* set up once untimed, then [setup_reps] times; serve from the
       last *)
    let set_up rep =
      Stack.setup ~traced ~kind:(kind rep) ~image:(at (Printf.sprintf "db%d.tix" rep)) paths
    in
    let earlier =
      List.init setup_reps (fun rep ->
          let stack = set_up rep in
          Stack.stop stack;
          Gc.compact ();
          stack.Stack.timings)
    in
    let stack = set_up setup_reps in
    Fun.protect ~finally:(fun () -> Stack.stop stack) @@ fun () ->
    let setup = List.tl earlier @ [ stack.Stack.timings ] in
    let setup_s =
      Stat.median
        (List.fold_left (fun s t -> Stat.add s (Stat.s_of_ns t.Stack.total_ns); s) (Stat.samples ()) setup)
    in
    log "set up %d times, median %.3f s" setup_reps setup_s;
    let db_stats = Store.Db.stats stack.Stack.corpus in
    let oracle_snapshot =
      match stack.Stack.node with
      | Some n -> Service.Scheduler.snapshot n.Stack.scheduler
      | None -> (
        match Service.Engine.of_db stack.Stack.corpus with Ok s -> s | Error e -> failwith e)
    in
    let compilable key =
      match key.Mix.req with
      | Service.Engine.Query { q; _ } ->
        Result.is_ok (Service.Engine.explain ~snapshot:oracle_snapshot q)
      | _ -> true
    in
    let keys =
      match workload with
      | "search" -> Mix.keys ~n:search_keys ~parallel:true ~compilable ()
      | "ingest" -> Mix.keys ~n:search_keys ~parallel:false ~compilable ()
      | _ -> Mix.keys ~n:federated_keys ~parallel:false ~compilable ()
    in
    let lines = Array.map (fun k -> Mix.line k) keys in
    let docs = Mix.writer_docs ~seed in
    let model = if workload = "ingest" then Some (model paths) else None in
    let seen = Hashtbl.create 4096 in
    let phase ~stream ~seconds ~traced =
      run_phase ~workload ~stack ~keys ~lines ~seen ~seed ~stream ~seconds ~traced ~docs ~model
    in
    (* warm-up: caches fill, lazy set-up finishes *)
    if workload = "federated" then begin
      (* one pass over the key space fills the shards' result caches *)
      let c = Wire.connect stack.Stack.port in
      Array.iter (fun line -> ignore (Wire.call c line)) lines;
      Wire.close c
    end;
    let warm = phase ~stream:100 ~seconds:warmup_s ~traced:false in
    log "warmed up: %d keys, %d requests" (Array.length keys) (attempted warm);
    let main = phase ~stream:200 ~seconds:(float_of_int seconds) ~traced:false in
    let peak_rss_mb = vm_hwm_mb () in
    log "measured: %d requests" (attempted main);
    let traced_phase =
      if traced then begin
        Spans.enabled := true;
        let p = phase ~stream:300 ~seconds:(float_of_int seconds) ~traced:true in
        Spans.enabled := false;
        log "traced: %d requests, %d spans" (attempted p) (List.length !Spans.spans);
        Some p
      end
      else None
    in
    let phases = warm :: main :: Option.to_list traced_phase in
    (* answers: against the oracle, or the ingest end check *)
    let final = reads ~seen 0 in
    (match (workload, model) with
    | "ingest", Some m ->
      let rec drain () =
        match stack.Stack.updates with
        | Some u when Service.Updates.checkpoint_in_progress u ->
          Unix.sleepf 0.05;
          drain ()
        | _ -> ()
      in
      drain ();
      check_ingest ~port:stack.Stack.port ~keys m final
    | _ ->
      check_oracle ~federated:(workload = "federated") ~snapshot:oracle_snapshot ~keys ~seen
        final);
    log "answers checked";
    let attempted_all = List.fold_left (fun a p -> a + attempted p) final.attempted phases in
    let failed_all = List.fold_left (fun a p -> a + failed p) final.failed phases in
    let reads_sum = Stat.summarize ~want:(read_tail workload) main.reads.lat in
    let writes_sum = Option.map (fun w -> Stat.summarize ~want:0.99 w.wlat) main.writes in
    let reads_all = List.fold_left (fun a p -> a + p.reads.attempted) 0 phases in
    let rounding = per final.rounding_responses reads_all in
    let probe = Probe.create () in
    if traced && failed_all = 0 then begin
      let sample = Probe.sample ~per:12 keys in
      let snap =
        match stack.Stack.node with
        | Some n -> Service.Scheduler.snapshot n.Stack.scheduler
        | None -> oracle_snapshot
      in
      Probe.read_path probe snap sample;
      if workload = "ingest" then
        Probe.write_path probe ~dir:(at "probe-wal") ~base:stack.Stack.corpus ~docs
          (List.filteri (fun i _ -> i < 16) sample);
      Option.iter (fun c -> Probe.dist probe c sample) stack.Stack.coordinator;
      log "probed"
    end;
    let layer = Option.map (fun tp ->
        per_layer ~workload ~stack ~keys ~setup ~xml_bytes:!xml_bytes ~main ~traced_phase:tp ~probe
          ~rounding)
        traced_phase
    in
    let meta =
      Stat.json_obj
        ([
           ("workload", Stat.json_str workload);
           ("seed", string_of_int seed);
           ("seconds", string_of_int seconds);
           ("measured_s", Stat.json_num main.seconds);
           ("host_steal_s", Stat.json_num main.steal_s);
           ("trace", if traced then "1" else "0");
           ("nproc", string_of_int (nproc ()));
           ( "corpus",
             Stat.json_obj
               [
                 ("articles", string_of_int stack.Stack.docs);
                 ("elements", string_of_int db_stats.Store.Db.elements);
                 ("occurrences", string_of_int db_stats.Store.Db.occurrences);
                 ("xml_bytes", string_of_int !xml_bytes);
               ] );
           ("clients", "2");
           ("setup_s", Stat.json_obj (List.mapi (fun i t -> (string_of_int i, Stat.json_num (Stat.s_of_ns t.Stack.total_ns))) setup));
           ("distinct_keys", string_of_int (Array.length keys));
           ("keys_drawn", string_of_int (Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 main.reads.drawn));
           ("result_cache_hit_ratio", Stat.json_num (ratio (fst main.cache)));
           ("plan_cache_hit_ratio", Stat.json_num (ratio (snd main.cache)));
           ("reads_ms", Stat.summary_json reads_sum);
           ("attempted", string_of_int attempted_all);
           ("failed", string_of_int failed_all);
           ("fail_ratio", Stat.json_num (per failed_all attempted_all));
           ( "score_rounding_defect",
             Stat.json_obj
               [
                 ("keys", string_of_int final.rounding_keys);
                 ("responses", string_of_int final.rounding_responses);
                 ("of_reads", string_of_int reads_all);
               ] );
           ("errors", "[" ^ String.concat ", " (List.map Stat.json_str (final.errors @ List.concat_map errors phases)) ^ "]");
         ]
        @ (match writes_sum with
          | Some s ->
            [
              ("writes_ms", Stat.summary_json s);
              ("checkpoints_completed", string_of_int main.checkpoints);
            ]
          | None -> [])
        @ match layer with Some (_, details, _) -> [ ("per_layer", details) ] | None -> [])
    in
    print_endline meta;
    if traced then Spans.write (Filename.concat ".perfbench" (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
    match layer with
    | _ when failed_all > 0 ->
      log "FAILED: %d of %d operations" failed_all attempted_all;
      1
    | Some (_, _, false) ->
      log "FAILED: stage-sum check";
      1
    | Some (metrics, _, true) ->
      print_endline (result ~attempted:attempted_all metrics);
      0
    | None ->
      print_endline
        (result ~attempted:attempted_all
           [
             metric "setup_s" "s" setup_s;
             metric "read_qps" "req/s" (float_of_int (Stat.count main.reads.lat) /. main.seconds);
             metric "read_p50_ms" "ms" reads_sum.Stat.p50;
             metric "read_p99_ms" "ms" reads_sum.Stat.p99;
             metric "peak_rss_mb" "MB" peak_rss_mb;
           ]);
      0
  in
  exit status
