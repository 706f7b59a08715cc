module J = Obs.Json

type codec = Json | Binary

type t = {
  dir : string;
  codec : codec;
  keep : int;
  sink : Obs.Sink.t option;
  mutable next_gen : int;
}

(* -- layout ----------------------------------------------------------------

   gen-NNNNNN.ckpt ::= magic "WFC1" (4B) | codec (1B: 0 json, 1 binary)
                     | payload length (8B BE) | payload bytes
                     | FNV-1a 64 of payload (8B BE)

   The length makes truncation detectable (a torn tail shortens the file
   below header + length + trailer), the checksum makes corruption
   detectable, and the decode pass makes the payload usable — a file must
   clear all three before [load] will return it. *)

let magic = "WFC1"
let header_len = 4 + 1 + 8
let trailer_len = 8

let codec_byte = function Json -> '\x00' | Binary -> '\x01'

let codec_of_byte = function
  | '\x00' -> Some Json
  | '\x01' -> Some Binary
  | _ -> None

let codec_string = function Json -> "json" | Binary -> "binary"

(* A loop rather than [String.iter], so that no closure captures [h] and
   the compiler keeps it unboxed: a boxed [h] costs an allocation per
   byte. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code s.[i])))
        0x100000001b3L
  done;
  !h

let gen_name g = Printf.sprintf "gen-%06d.ckpt" g
let generation_path t g = Filename.concat t.dir (gen_name g)
let dir t = t.dir

let gen_of_name name =
  match Scanf.sscanf_opt name "gen-%d.ckpt%!" Fun.id with
  | Some g when g >= 0 -> Some g
  | _ -> None

let scan_generations dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries |> List.filter_map gen_of_name |> List.sort compare

let generations t = scan_generations t.dir

(* -- observability --------------------------------------------------------- *)

let emit t name fields =
  match t.sink with
  | None -> ()
  | Some s -> Obs.Sink.emit s (Obs.Event.make name fields)

(* -- open ------------------------------------------------------------------ *)

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(codec = Binary) ?(keep = 3) ?sink dir =
  match
    if Sys.file_exists dir then
      if Sys.is_directory dir then Ok ()
      else Error (Printf.sprintf "checkpoint path %S is not a directory" dir)
    else
      match mkdir_p dir with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "cannot create checkpoint directory %S: %s" dir
             (Unix.error_message e))
  with
  | Error _ as e -> e
  | Ok () ->
    let gens = scan_generations dir in
    let next_gen =
      match List.rev gens with [] -> 0 | newest :: _ -> newest + 1
    in
    Ok { dir; codec; keep = max 1 keep; sink; next_gen }

(* -- durable write --------------------------------------------------------- *)

let fsync_dir dir =
  (* best-effort: some filesystems refuse O_RDONLY fsync on directories *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Write-to-temp then rename, so a killed process leaves the final name
   whole or absent; [sync] also fsyncs the file before the rename and the
   directory after it, so a power loss does too. *)
let write_atomic ~sync ~dir ~name contents =
  let tmp = Filename.concat dir ("tmp-" ^ name) in
  let final = Filename.concat dir name in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = String.length contents in
        let written = ref 0 in
        while !written < len do
          written :=
            !written
            + Unix.write_substring fd contents !written (len - !written)
        done;
        if sync then Unix.fsync fd);
    Unix.rename tmp final;
    if sync then fsync_dir dir
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ());
    Error (Printf.sprintf "write %s: %s" final (Unix.error_message e))

let encode_payload codec value =
  match codec with
  | Json -> J.to_string value
  | Binary ->
    let buf = Buffer.create 4096 in
    Obs.Binval.add_value buf value;
    Buffer.contents buf

let encode_generation codec value =
  let payload = encode_payload codec value in
  let buf = Buffer.create (header_len + String.length payload + trailer_len) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (codec_byte codec);
  Obs.Binval.add_i64 buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.add_int64_be buf (fnv64 payload);
  Buffer.contents buf

(* Prune synchronously after a successful save: unlink is cheap, and doing
   it here (rather than on a timer) keeps the store's invariant — at most
   [keep] generations plus whatever an in-progress crash left — local to
   one function. *)
let prune t =
  let gens = List.rev (scan_generations t.dir) in
  List.iteri
    (fun i g ->
      if i >= t.keep then
        try Sys.remove (generation_path t g) with Sys_error _ -> ())
    gens

let save ?(sync = true) t value =
  let gen = t.next_gen in
  let contents = encode_generation t.codec value in
  match write_atomic ~sync ~dir:t.dir ~name:(gen_name gen) contents with
  | Error msg as e ->
      emit t Obs.Event.Name.ckpt_save_error
        [ ("gen", J.Int gen); ("error", J.Str msg) ];
      e
  | Ok () ->
      t.next_gen <- gen + 1;
      prune t;
      emit t Obs.Event.Name.ckpt_save
        [
          ("gen", J.Int gen);
          ("bytes", J.Int (String.length contents));
          ("codec", J.Str (codec_string t.codec));
        ];
      Ok gen

(* -- load with rollback ---------------------------------------------------- *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Some s
  | exception Sys_error _ -> None
  | exception End_of_file -> None

let validate contents =
  let n = String.length contents in
  if n < header_len + trailer_len then Error "truncated header"
  else if String.sub contents 0 4 <> magic then Error "bad magic"
  else
    match codec_of_byte contents.[4] with
    | None -> Error "unknown codec byte"
    | Some codec -> (
      let pos = ref 5 in
      match Obs.Binval.get_i64 contents pos with
      | exception Obs.Binval.Error msg -> Error msg
      | len ->
        if len < 0 || n - header_len - trailer_len <> len then
          Error "payload length mismatch (torn write?)"
        else
          let payload = String.sub contents header_len len in
          let stored = String.get_int64_be contents (header_len + len) in
          if not (Int64.equal stored (fnv64 payload)) then
            Error "checksum mismatch"
          else (
            match codec with
            | Json -> (
              match J.of_string payload with
              | Ok v -> Ok v
              | Error msg -> Error ("payload JSON: " ^ msg))
            | Binary -> (
              let p = ref 0 in
              match Obs.Binval.decode_value payload p with
              | exception Obs.Binval.Error msg -> Error ("payload: " ^ msg)
              | v ->
                if !p <> len then Error "payload: trailing garbage"
                else Ok v)))

let load t =
  let rec try_gens = function
    | [] -> None
    | g :: older -> (
      let demote reason =
        emit t Obs.Event.Name.ckpt_rollback
          [ ("gen", J.Int g); ("reason", J.Str reason) ];
        try_gens older
      in
      match read_file (generation_path t g) with
      | None -> demote "unreadable"
      | Some contents -> (
        match validate contents with
        | Error reason -> demote reason
        | Ok value ->
          emit t Obs.Event.Name.ckpt_load
            [ ("gen", J.Int g); ("bytes", J.Int (String.length contents)) ];
          Some (g, value)))
  in
  try_gens (List.rev (scan_generations t.dir))

let note_resume t ~gen ~total ~done_ =
  emit t Obs.Event.Name.ckpt_resume
    [ ("gen", J.Int gen); ("total", J.Int total); ("done", J.Int done_) ]
