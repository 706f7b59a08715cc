let default_max_len = 1024 * 1024
let max_wire_len = 0x7fffffff

type error = Eof | Truncated | Oversized of int | Desynced of int

let error_string = function
  | Eof -> "end of stream"
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Desynced n ->
    Printf.sprintf "unframeable length %d (wire limit %d)" n max_wire_len

let encode payload =
  let n = String.length payload in
  if n > max_wire_len then invalid_arg "Frame.encode: payload too long";
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Header and payload leave in one [write], so a peer never wakes for a
   lone header; the loop covers the kernel taking less. *)
let write fd payload =
  if String.length payload > max_wire_len then
    invalid_arg "Frame.write: payload too long";
  let buf = Bytes.unsafe_of_string (encode payload) in
  let off = ref 0 and len = ref (Bytes.length buf) in
  while !len > 0 do
    let w = Unix.write fd buf !off !len in
    off := !off + w;
    len := !len - w
  done

(* Read exactly [len] bytes into [buf]; [`Eof n] reports how many arrived
   before the stream ended. *)
let read_exactly fd buf len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let r = Unix.read fd buf !got (len - !got) in
    if r = 0 then eof := true else got := !got + r
  done;
  if !eof then `Eof !got else `Ok

let discard fd len =
  let chunk = Bytes.create 65536 in
  let left = ref len in
  let eof = ref false in
  while (not !eof) && !left > 0 do
    let r = Unix.read fd chunk 0 (min !left (Bytes.length chunk)) in
    if r = 0 then eof := true else left := !left - r
  done;
  not !eof

let read ?(max_len = default_max_len) fd =
  let hdr = Bytes.create 4 in
  match read_exactly fd hdr 4 with
  | `Eof 0 -> Error Eof
  | `Eof _ -> Error Truncated
  | `Ok ->
    let n =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    (* The top bit on the wire would be a negative 32-bit length. No writer
       can have produced it, so there is no payload to skip: the stream is
       desynchronized for good, unlike the recoverable Oversized case. *)
    if n > max_wire_len then Error (Desynced n)
    else if n > max_len then
      if discard fd n then Error (Oversized n) else Error Truncated
    else begin
      let buf = Bytes.create n in
      match read_exactly fd buf n with
      | `Ok -> Ok (Bytes.unsafe_to_string buf)
      | `Eof _ -> Error Truncated
    end

(* ------------------------------------------------- incremental decoding *)

(* The shards' push-style counterpart of [read]: bytes arrive in whatever
   chunks the socket yields, the decoder buffers the unconsumed tail and
   emits complete frames. One decoder per connection, its buffer reused
   across frames, so a steady stream settles into zero buffer growth. *)

type decoder = {
  d_max : int;
  mutable d_buf : Bytes.t;  (* unconsumed input: d_buf[d_off .. d_off+d_len) *)
  mutable d_off : int;
  mutable d_len : int;
  mutable d_skip : int;  (* oversized payload bytes still to discard *)
  mutable d_skip_announced : int;
  mutable d_dead : int;  (* Desynced announced length; < 0 when healthy *)
  mutable d_frame_off : int;  (* last V_frame: d_buf[d_frame_off ..) *)
  mutable d_frame_len : int;
}

let decoder ?(max_len = default_max_len) () =
  {
    d_max = max_len;
    d_buf = Bytes.create 4096;
    d_off = 0;
    d_len = 0;
    d_skip = 0;
    d_skip_announced = 0;
    d_dead = -1;
    d_frame_off = 0;
    d_frame_len = 0;
  }

let compact d =
  if d.d_len = 0 then d.d_off <- 0
  else if d.d_off > 0 && d.d_off >= Bytes.length d.d_buf - d.d_off - d.d_len
  then begin
    Bytes.blit d.d_buf d.d_off d.d_buf 0 d.d_len;
    d.d_off <- 0
  end

let feed d src off len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Frame.feed";
  (* bytes inside a frame being skipped never enter the buffer *)
  let consumed = min d.d_skip len in
  d.d_skip <- d.d_skip - consumed;
  let off = off + consumed and len = len - consumed in
  if len > 0 then begin
    compact d;
    if d.d_off + d.d_len + len > Bytes.length d.d_buf then begin
      let cap = ref (max 4096 (2 * Bytes.length d.d_buf)) in
      while d.d_len + len > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit d.d_buf d.d_off b 0 d.d_len;
      d.d_buf <- b;
      d.d_off <- 0
    end;
    Bytes.blit src off d.d_buf (d.d_off + d.d_len) len;
    d.d_len <- d.d_len + len
  end

(* Allocation-free frame delivery: [V_frame] is a constant constructor and
   the payload stays in place — [d_frame_off]/[d_frame_len] point into the
   decoder's buffer, valid until the next [feed] (which may compact or
   regrow it). The copying [next] below remains for callers that want an
   owned string. *)
type view = V_await | V_frame | V_oversized of int | V_desynced of int

let frame_buf d = d.d_buf
let frame_off d = d.d_frame_off
let frame_len d = d.d_frame_len

let next_view d =
  if d.d_dead >= 0 then V_desynced d.d_dead
  else if d.d_skip > 0 then V_await
  else if d.d_skip_announced > 0 then begin
    (* the oversized payload has now been fully discarded: report it once,
       with the stream re-synchronized at the next header *)
    let n = d.d_skip_announced in
    d.d_skip_announced <- 0;
    V_oversized n
  end
  else if d.d_len < 4 then V_await
  else begin
    let b = d.d_buf and o = d.d_off in
    let n =
      (Bytes.get_uint8 b o lsl 24)
      lor (Bytes.get_uint8 b (o + 1) lsl 16)
      lor (Bytes.get_uint8 b (o + 2) lsl 8)
      lor Bytes.get_uint8 b (o + 3)
    in
    if n > max_wire_len then begin
      d.d_dead <- n;
      V_desynced n
    end
    else if n > d.d_max then begin
      (* consume the header, then discard [n] payload bytes: whatever is
         already buffered now, the rest as it is fed *)
      d.d_off <- d.d_off + 4;
      d.d_len <- d.d_len - 4;
      let buffered = min n d.d_len in
      d.d_off <- d.d_off + buffered;
      d.d_len <- d.d_len - buffered;
      d.d_skip <- n - buffered;
      d.d_skip_announced <- n;
      if d.d_skip > 0 then V_await
      else begin
        d.d_skip_announced <- 0;
        V_oversized n
      end
    end
    else if d.d_len >= 4 + n then begin
      d.d_frame_off <- d.d_off + 4;
      d.d_frame_len <- n;
      d.d_off <- d.d_off + 4 + n;
      d.d_len <- d.d_len - (4 + n);
      if d.d_len = 0 then d.d_off <- 0;
      V_frame
    end
    else V_await
  end

let next d =
  match next_view d with
  | V_await -> Ok `Await
  | V_frame -> Ok (`Frame (Bytes.sub_string d.d_buf d.d_frame_off d.d_frame_len))
  | V_oversized n -> Error (Oversized n)
  | V_desynced n -> Error (Desynced n)
