(* Span recording for the traced run. Spans are recorded from the
   benchmark's own code around its calls into each layer (client
   send/receive, the server dispatch, scheduler admission, engine
   execution, encoding, the update coordinator, each shard's
   dispatch). Spans of one request share its id; the parent is named.
   They are kept in memory and written out when the run ends. *)

type span = { rid : int; name : string; parent : string; t0 : int; t1 : int }

let lock = Mutex.create ()
let spans : span list ref = ref []
let enabled = ref false

let record ~rid ~name ~parent t0 t1 =
  if !enabled && rid >= 0 then
    Mutex.protect lock (fun () -> spans := { rid; name; parent; t0; t1 } :: !spans)

let around ~rid ~name ~parent f =
  if !enabled && rid >= 0 then begin
    let t0 = Stat.now_ns () in
    let v = f () in
    record ~rid ~name ~parent t0 (Stat.now_ns ());
    v
  end
  else f ()

(* Traced requests carry their id to the server inside the governor
   step budget: [max_steps = tag_base + rid] can never bind, is
   forwarded verbatim by the coordinator to every shard, and is not
   part of any cache key. *)
let tag_base = 1 lsl 40

let rid_of_request = function
  | Service.Protocol.Exec { limits = { Core.Governor.max_steps = Some n; _ }; _ }
    when n >= tag_base ->
    n - tag_base
  | _ -> -1

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"rid\":%d,\"name\":%S,\"parent\":%S,\"t0_ns\":%d,\"t1_ns\":%d}\n"
        s.rid s.name s.parent s.t0 s.t1)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-request attribution.

   Layer self times along the request's blocking path:
   - wire: client RTT minus the server dispatch ([service.handle]);
   - queue, exec, resume, encode: their own spans;
   - updates: the update coordinator call (mutations);
   - dist.merge: the coordinator dispatch minus the union of the
     shard dispatch spans (fan-out, merge, shard wire and JSON);
   - the slowest shard's dispatch, split the same way as a
     single-node dispatch into shard queue/exec/resume/encode.
   Whatever the named spans leave uncovered is [unattributed]:
   dispatch glue, thread wake-ups, shard start skew. Being the
   remainder, it makes the parts sum to the RTT by construction; the
   stage-sum check is that every part is non-negative in 99% of
   requests and that the median unattributed time stays within
   [max 0.05 ms (10% of the median RTT)]. *)

type attribution = {
  rtt : float;
  wire : float;
  queue : float;
  exec : float;
  resume : float;  (** worker finish to connection thread running *)
  encode : float;
  updates : float;
  merge : float;
  unattributed : float;
  negative : bool;  (** some part came out below -1 µs: broken nesting *)
  shard_handles : float list;
}

let dur s = Stat.ms_of_ns (s.t1 - s.t0)

let union_ms l =
  let l = List.sort (fun a b -> compare a.t0 b.t0) l in
  let rec go acc cur_end = function
    | [] -> acc
    | s :: rest ->
      let start = max s.t0 cur_end in
      let acc = if s.t1 > start then acc + (s.t1 - start) else acc in
      go acc (max cur_end s.t1) rest
  in
  Stat.ms_of_ns (go 0 min_int l)

let attribute (l : span list) =
  let find name = List.find_opt (fun s -> s.name = name) l in
  let d name = match find name with Some s -> dur s | None -> 0. in
  match (find "client.rtt", find "service.handle") with
  | Some rtt, Some handle ->
    let rtt_ms = dur rtt and handle_ms = dur handle in
    let wire = rtt_ms -. handle_ms in
    let shard_handles =
      List.filter
        (fun s -> String.length s.name > 5 && String.sub s.name 0 5 = "shard"
                  && Filename.extension s.name = ".handle")
        l
    in
    let part prefix =
      ( d (prefix ^ "queue_wait"),
        d (prefix ^ "exec") +. d (prefix ^ "exec_cached"),
        d (prefix ^ "resume"),
        d (prefix ^ "encode") )
    in
    let queue, exec, resume, encode, merge =
      match shard_handles with
      | [] ->
        let q, e, r, c = part "service." in
        (q, e, r, c, 0.)
      | shards ->
        let slowest =
          List.fold_left (fun a s -> if s.t1 > a.t1 then s else a) (List.hd shards) shards
        in
        let q, e, r, c = part (Filename.remove_extension slowest.name ^ ".") in
        (q, e, r, c, handle_ms -. union_ms shards)
    in
    let updates = d "service.updates" in
    (* for a federated request this leaves the slowest shard's
       dispatch glue plus the shards' start skew *)
    let unattributed = handle_ms -. (queue +. exec +. resume +. encode +. updates +. merge) in
    let negative =
      List.exists (fun v -> v < -0.001)
        [ wire; queue; exec; resume; encode; updates; merge; unattributed ]
    in
    Some
      {
        rtt = rtt_ms;
        wire;
        queue;
        exec;
        resume;
        encode;
        updates;
        merge;
        unattributed;
        negative;
        shard_handles = List.map dur shard_handles;
      }
  | _ -> None

let by_request () =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.rid (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.rid)))
    !spans;
  tbl
