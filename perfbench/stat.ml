(* Timing and summary primitives shared by every part of the
   benchmark. All timers read the monotonic nanosecond clock; the
   wall clock is never used for a measurement. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Time a thunk; returns its value and the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* A growable float sample buffer. Not thread-safe: each recording
   thread owns its own and they are merged afterwards. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

let sorted s =
  let a = to_array s in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let median s = quantile (sorted s) 0.5

(* The percentile rule: a percentile q is supported only when at
   least 10 samples lie beyond it, i.e. n * (1 - q) >= 10. Returns
   the highest supported percentile among the usual ladder, capped
   at [want]. *)
let supported_quantile ~want n =
  let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ] in
  let ok q = float_of_int n *. (1. -. q) >= 10. in
  match List.find_opt (fun q -> q <= want && ok q) ladder with
  | Some q -> q
  | None -> 0.5

let sum s =
  let t = ref 0. in
  for i = 0 to s.len - 1 do t := !t +. s.data.(i) done;
  !t

let mean s = if s.len = 0 then nan else sum s /. float_of_int s.len

(* JSON helpers for the benchmark's own output. Numbers keep every
   digit ("%.17g"), as measured. *)
let json_num f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_str s = Service.Json.to_string (Service.Json.String s)

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(* A latency summary with its sample count and the percentile rule
   applied: [p99] holds the percentile [want], or the highest
   supported one below it, named in [p99_is]. *)
type summary = { n : int; p50 : float; p99 : float; p99_is : float }

let summarize ~want s =
  let a = sorted s in
  let n = Array.length a in
  let q = supported_quantile ~want n in
  { n; p50 = quantile a 0.5; p99 = quantile a q; p99_is = q }

let summary_json { n; p50; p99; p99_is } =
  json_obj
    [
      ("n", string_of_int n);
      ("p50", json_num p50);
      ("p99", json_num p99);
      ("p99_is_percentile", json_num (100. *. p99_is));
    ]
