(* Shared plumbing for the benchmark program: the monotonic clock, order
   statistics, span recording, process memory and the result line. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC through bechamel's stub), so a
   wall-clock step can never fake a latency and sub-microsecond calls
   resolve. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

(* Nearest-rank quantile over a float array (sorted in place). Callers
   state the sample count next to the figure. *)
let quantile (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median a = quantile (Array.copy a) 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* A growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let q t q = quantile (to_array t) q
  let length t = t.n
end

(* Steal. The host runs other machines on the same cores; the steal
   column of /proc/stat counts the ticks (1/100 s) in which the
   hypervisor gave this machine's CPUs to someone else. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: st :: _ ->
          Option.value ~default:0.0 (float_of_string_opt st)
      | _ -> 0.0)
  | exception (Sys_error _ | End_of_file) -> 0.0

(* [f ()] and the steal it suffered, in ticks per second of its run. *)
let with_steal f =
  let s0 = steal_ticks () and t0 = now_ns () in
  let r = f () in
  let secs = (now_ns () -. t0) /. 1e9 in
  (r, (steal_ticks () -. s0) /. Float.max secs 1e-3)

(* Figures of repeated units (passes, windows, spawns), each tagged with
   the steal rate while it ran. A unit the hypervisor took CPU from
   measures the neighbours, not the program. [median] is the median over
   the calm units: those whose steal rate is at most the lower of
   [quiet] and the median steal rate, when there are five of them, else
   the calmer half (steal at most the median). The choice looks only at
   steal, never at the figures. *)
module Calm = struct
  type t = { v : Sample.t; steal : Sample.t }

  (* One tick (10 ms) in half a second. *)
  let quiet = 2.0

  let create () = { v = Sample.create (); steal = Sample.create () }

  let add t ~steal x =
    Sample.add t.v x;
    Sample.add t.steal steal

  let values t = Sample.to_array t.v
  let steal_median t = Sample.q t.steal 0.5

  let median t =
    let v = Sample.to_array t.v and s = Sample.to_array t.steal in
    let upto cut = List.filteri (fun i _ -> s.(i) <= cut) (Array.to_list v) in
    let calm = upto (Float.min quiet (steal_median t)) in
    median (Array.of_list (if List.length calm >= 5 then calm else upto (steal_median t)))
end

(* Spans recorded from the benchmark's own code around calls into each
   layer: name, request id, parent span, start and end on the monotonic
   clock. They stay in memory and are written out when the run ends. *)
module Trace = struct
  type span = {
    name : string;
    req : int;
    parent : int;
    start_ns : float;
    end_ns : float;
  }

  let enabled = ref false
  let spans : span list ref = ref []
  let count = ref 0

  (* [f] runs inside a span named [name]; returns its result. Spans of one
     request share [req] (-1: none). *)
  let span ?(req = -1) name f =
    if not !enabled then f ()
    else begin
      let start_ns = now_ns () in
      let r = f () in
      let end_ns = now_ns () in
      spans := { name; req; parent = -1; start_ns; end_ns } :: !spans;
      incr count;
      r
    end

  (* A span timed elsewhere; [parent] is the request whose client span
     encloses it (-1: none). *)
  let record ?(req = -1) ?(parent = -1) name ~start_ns ~end_ns =
    if !enabled then begin
      spans := { name; req; parent; start_ns; end_ns } :: !spans;
      incr count
    end

  (* Chrome trace_event JSON, one complete event per span. *)
  let write path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%d}}"
          s.name (s.start_ns /. 1e3)
          ((s.end_ns -. s.start_ns) /. 1e3)
          s.req s.parent)
      (List.rev !spans);
    output_string oc "]}\n";
    close_out oc
end

(* Peak resident set (VmHWM) of a process, MiB; 0 when unreadable. *)
let vm_hwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0 (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.0

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' text))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

let info fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* The result line: the last line of stdout. Values keep every digit. *)
let print_result ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
