(* The benchmark's client side: one NDJSON connection per closed-loop
   client, as `tixdb client` and `tixq` hold them. *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* A reply slower than this fails the request as a timeout. *)
let timeout_s = 30.

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send one request line and wait for the whole response line;
   returns the response (an [Error] when the exchange failed or timed
   out) with the send and last-byte times in ns. *)
let call c line =
  let t0 = Stat.now_ns () in
  let resp =
    try
      output_string c.oc line;
      output_char c.oc '\n';
      flush c.oc;
      Ok (input_line c.ic)
    with e -> Error (Printexc.to_string e)
  in
  (resp, t0, Stat.now_ns ())

(* What a read answer is compared on: the encoded rows and the
   pre-truncation total. *)
type answer = { rows : string; total : int }

let answer_of_result (r : Service.Engine.result) =
  { rows = Service.Json.to_string (Service.Protocol.rows_to_json r.rows); total = r.total }

type reply = Answer of answer * int  (** answer, steps_used *) | Failed of string

let parse_reply line =
  match Service.Json.parse line with
  | Error e -> Failed ("unparsable response: " ^ e)
  | Ok j -> (
    let open Service.Json in
    match member "ok" j with
    | Some (Bool true) -> (
      let steps =
        Option.value ~default:0 (Option.bind (member "steps_used" j) to_int_opt)
      in
      let degraded = member "degraded" j = Some (Bool true) in
      match (member "results" j, Option.bind (member "total" j) to_int_opt) with
      | _ when degraded -> Failed "degraded"
      | Some rows, Some total -> Answer ({ rows = to_string rows; total }, steps)
      | _ -> Failed "response without results/total")
    | _ ->
      let code =
        Option.bind (member "error" j) (fun e ->
            Option.bind (member "code" e) to_string_opt)
      in
      Failed (Option.value ~default:"error" code))

let ok_reply line =
  match Service.Json.parse line with
  | Ok j -> Service.Json.member "ok" j = Some (Service.Json.Bool true)
  | Error _ -> false

(* The signature of a known defect of [Dist.Coordinator]: scores
   cross the wire as "%.12g" text, so the coordinator's rows carry
   scores rounded to 12 significant digits (5.999999999999 comes back
   as 6.0), and it merges rows whose scores differ only beyond those
   digits as ties, in document order, where a single node keeps them
   in exact score order. The answers [got] and [want] show it when
   they have the same total and the same score, read as a number, at
   every position (a score the coordinator rounded to a whole number
   prints as 3.0 where a single node prints 2.9999999999999996 as 3),
   and differ only in the order of rows of equal score, or, in the
   last such group of an answer cut short of its total, in which of
   them were kept. Any other difference is a wrong answer. *)
let rounding_only got want =
  let open Service.Json in
  let rec span p = function
    | x :: rest when p x ->
      let a, b = span p rest in
      (x :: a, b)
    | l -> ([], l)
  in
  let score r = Option.bind (member "score" r) to_float_opt in
  match (parse got.rows, parse want.rows) with
  | Ok (List g), Ok (List w) when got.total = want.total && List.length g = List.length w ->
    let cut = List.length g < got.total in
    let rec groups g w =
      match g with
      | [] -> true
      | r :: _ ->
        let same x = score x = score r in
        let g1, g' = span same g and w1, w' = span same w in
        let unscored = function
          | Obj fields -> Obj (List.remove_assoc "score" fields)
          | r -> r
        in
        let rows l = List.sort compare (List.map (fun r -> to_string (unscored r)) l) in
        (g' = [] && cut) || (rows g1 = rows w1 && groups g' w')
    in
    List.for_all2 (fun a b -> score a = score b) g w && groups g w
  | _ -> false
