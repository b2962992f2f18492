(* Lexer for MiniC. *)

type token =
  | Id of string
  | Int_lit of int64 * Llvm_ir.Ltype.int_kind
  | Float_lit of float
  | Char_lit of char
  | Str_lit of string
  (* punctuation *)
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Semi
  | Comma
  | Dot
  | Arrow
  | Colon
  | Question
  (* operators *)
  | Plus
  | Minus
  | Star
  | Slash
  | Percent
  | Amp
  | Pipe
  | Caret
  | Tilde
  | Bang
  | Shl
  | Shr
  | Lt
  | Gt
  | Le
  | Ge
  | EqEq
  | Ne
  | AndAnd
  | OrOr
  | Assign
  | PlusEq
  | MinusEq
  | StarEq
  | SlashEq
  | PercentEq
  | AmpEq
  | PipeEq
  | CaretEq
  | ShlEq
  | ShrEq
  | PlusPlus
  | MinusMinus
  | Eof

type t = { tok : token; line : int }

exception Error of string * int

(* Called on every identifier the parser sees; a string match compiles
   to a decision tree over the bytes. *)
let is_keyword = function
  | "void" | "bool" | "char" | "uchar" | "short" | "ushort" | "int" | "uint"
  | "long" | "ulong" | "float" | "double" | "struct" | "class" | "if" | "else"
  | "while" | "do" | "for" | "return" | "break" | "continue" | "true" | "false"
  | "null" | "new" | "delete" | "sizeof" | "static" | "extern" | "virtual"
  | "try" | "catch" | "throw" | "public" | "switch" | "case" | "default" ->
    true
  | _ -> false

let tokenize (src : string) : t list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let push tok = toks := { tok; line = !line } :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_digit c = c >= '0' && c <= '9' in
  let is_id_char c = is_id_start c || is_digit c in
  let read_escape () =
    (* cursor on the char after backslash *)
    let c = src.[!i] in
    incr i;
    match c with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | c -> raise (Error (Printf.sprintf "bad escape \\%c" c, !line))
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then raise (Error ("unterminated comment", !line))
        else if src.[!i] = '*' && src.[!i + 1] = '/' then i := !i + 2
        else begin
          if src.[!i] = '\n' then incr line;
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if is_id_start c then begin
      let start = !i in
      while !i < n && is_id_char src.[!i] do incr i done;
      push (Id (String.sub src start (!i - start)))
    end
    else if is_digit c then begin
      let start = !i in
      let is_hex = c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
      if is_hex then i := !i + 2;
      let seen_dot = ref false and seen_exp = ref false in
      let continue_ = ref true in
      while !continue_ && !i < n do
        let ch = src.[!i] in
        if is_digit ch then incr i
        else if is_hex && ((ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F'))
        then incr i
        else if ch = '.' && (not is_hex) && not !seen_dot then begin
          seen_dot := true;
          incr i
        end
        else if (ch = 'e' || ch = 'E') && (not is_hex) && not !seen_exp then begin
          seen_exp := true;
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i
        end
        else continue_ := false
      done;
      let text = String.sub src start (!i - start) in
      if !seen_dot || !seen_exp then
        match float_of_string_opt text with
        | Some f -> push (Float_lit f)
        | None -> raise (Error ("bad float " ^ text, !line))
      else begin
        (* suffixes: L/l = long, U/u = uint, UL = ulong *)
        let unsigned = ref false and long_ = ref false in
        let rec suffix () =
          match peek 0 with
          | Some ('u' | 'U') -> unsigned := true; incr i; suffix ()
          | Some ('l' | 'L') -> long_ := true; incr i; suffix ()
          | _ -> ()
        in
        suffix ();
        match Int64.of_string_opt text with
        | Some v ->
          let kind =
            match (!unsigned, !long_) with
            | false, false -> Llvm_ir.Ltype.Int
            | true, false -> Llvm_ir.Ltype.Uint
            | false, true -> Llvm_ir.Ltype.Long
            | true, true -> Llvm_ir.Ltype.Ulong
          in
          push (Int_lit (v, kind))
        | None -> raise (Error ("bad integer " ^ text, !line))
      end
    end
    else if c = '\'' then begin
      incr i;
      if !i >= n then raise (Error ("unterminated char literal", !line));
      let ch =
        if src.[!i] = '\\' then begin
          incr i;
          read_escape ()
        end
        else begin
          let ch = src.[!i] in
          incr i;
          ch
        end
      in
      if !i >= n || src.[!i] <> '\'' then
        raise (Error ("unterminated char literal", !line));
      incr i;
      push (Char_lit ch)
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let rec go () =
        if !i >= n then raise (Error ("unterminated string", !line))
        else if src.[!i] = '"' then incr i
        else if src.[!i] = '\\' then begin
          incr i;
          Buffer.add_char buf (read_escape ());
          go ()
        end
        else begin
          Buffer.add_char buf src.[!i];
          incr i;
          go ()
        end
      in
      go ();
      push (Str_lit (Buffer.contents buf))
    end
    else begin
      let two a b tok_two tok_one =
        if peek 1 = Some b then begin
          i := !i + 2;
          push tok_two
        end
        else begin
          incr i;
          push tok_one
        end;
        ignore a
      in
      match c with
      | '(' -> incr i; push Lparen
      | ')' -> incr i; push Rparen
      | '{' -> incr i; push Lbrace
      | '}' -> incr i; push Rbrace
      | '[' -> incr i; push Lbracket
      | ']' -> incr i; push Rbracket
      | ';' -> incr i; push Semi
      | ',' -> incr i; push Comma
      | '.' -> incr i; push Dot
      | ':' -> incr i; push Colon
      | '?' -> incr i; push Question
      | '~' -> incr i; push Tilde
      | '+' ->
        if peek 1 = Some '+' then (i := !i + 2; push PlusPlus)
        else two '+' '=' PlusEq Plus
      | '-' ->
        if peek 1 = Some '-' then (i := !i + 2; push MinusMinus)
        else if peek 1 = Some '>' then (i := !i + 2; push Arrow)
        else two '-' '=' MinusEq Minus
      | '*' -> two '*' '=' StarEq Star
      | '/' -> two '/' '=' SlashEq Slash
      | '%' -> two '%' '=' PercentEq Percent
      | '^' -> two '^' '=' CaretEq Caret
      | '!' -> two '!' '=' Ne Bang
      | '=' -> two '=' '=' EqEq Assign
      | '&' ->
        if peek 1 = Some '&' then (i := !i + 2; push AndAnd)
        else two '&' '=' AmpEq Amp
      | '|' ->
        if peek 1 = Some '|' then (i := !i + 2; push OrOr)
        else two '|' '=' PipeEq Pipe
      | '<' ->
        if peek 1 = Some '<' then begin
          if peek 2 = Some '=' then (i := !i + 3; push ShlEq)
          else (i := !i + 2; push Shl)
        end
        else two '<' '=' Le Lt
      | '>' ->
        if peek 1 = Some '>' then begin
          if peek 2 = Some '=' then (i := !i + 3; push ShrEq)
          else (i := !i + 2; push Shr)
        end
        else two '>' '=' Ge Gt
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  push Eof;
  List.rev !toks

let to_string = function
  | Id s -> s
  | Int_lit (v, _) -> Int64.to_string v
  | Float_lit f -> string_of_float f
  | Char_lit c -> Printf.sprintf "%C" c
  | Str_lit s -> Printf.sprintf "%S" s
  | Lparen -> "(" | Rparen -> ")" | Lbrace -> "{" | Rbrace -> "}"
  | Lbracket -> "[" | Rbracket -> "]" | Semi -> ";" | Comma -> ","
  | Dot -> "." | Arrow -> "->" | Colon -> ":" | Question -> "?"
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/" | Percent -> "%"
  | Amp -> "&" | Pipe -> "|" | Caret -> "^" | Tilde -> "~" | Bang -> "!"
  | Shl -> "<<" | Shr -> ">>" | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | EqEq -> "==" | Ne -> "!=" | AndAnd -> "&&" | OrOr -> "||" | Assign -> "="
  | PlusEq -> "+=" | MinusEq -> "-=" | StarEq -> "*=" | SlashEq -> "/="
  | PercentEq -> "%=" | AmpEq -> "&=" | PipeEq -> "|=" | CaretEq -> "^="
  | ShlEq -> "<<=" | ShrEq -> ">>=" | PlusPlus -> "++" | MinusMinus -> "--"
  | Eof -> "<eof>"
