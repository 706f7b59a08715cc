module Memory = Simkit.Memory
module Op = Simkit.Runtime.Op

let decode_leader_vector ~k v =
  match v with
  | Value.Unit -> Array.make k (-1) (* no advice: nobody is trusted *)
  | Value.Int leader -> Array.make k leader
  | _ ->
    let vec = Fdlib.Fd.decode_vector v in
    if Array.length vec <> k then
      invalid_arg "Ksa: FD vector length mismatch"
    else vec

let make ?(max_rounds = 512) ~k () =
  if k < 1 then invalid_arg "Ksa.make";
  {
    Algorithm.algo_name = Printf.sprintf "ksa-with-vector-Omega-%d" k;
    make =
      (fun ctx ->
        let mem = ctx.Algorithm.mem in
        let instances =
          Array.init k (fun _ ->
              Leader_consensus.create mem ~n_c:ctx.Algorithm.n_c ~max_rounds)
        in
        (* Pump the clients in turn, from the first again after the
           last, and decide the first decision a client returns. *)
        let c_run i input =
          let clients =
            Array.map (fun lc -> Leader_consensus.client lc ~me:i input) instances
          in
          let rec pump j =
            if j = k then pump 0
            else
              match Leader_consensus.pump clients.(j) with
              | Leader_consensus.Decided v -> Op.decide v
              | Leader_consensus.Pending | Leader_consensus.Exhausted ->
                pump (j + 1)
          in
          pump 0
        in
        (* Serve the instances whose position names [me]. A bare leader
           names it in every position, and no advice in none: only a
           vector is decoded. *)
        let s_run me =
          let rec loop () =
            (match Op.query () with
            | Value.Unit -> ()
            | Value.Int leader ->
              if leader = me then Array.iter Leader_consensus.serve instances
            | v ->
              let w = decode_leader_vector ~k v in
              for j = 0 to k - 1 do
                if w.(j) = me then Leader_consensus.serve instances.(j)
              done);
            loop ()
          in
          loop ()
        in
        { Algorithm.c_run; s_run });
  }

let consensus ?max_rounds () = make ?max_rounds ~k:1 ()
